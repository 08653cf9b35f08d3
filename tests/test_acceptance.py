"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS or FAIL line straight to the terminal
(bypassing capture), so a verbose run ends with a ten-line scorecard.
The line is printed before the assertion fires; a red test still reports
itself honestly.
"""

import time
from itertools import product

import numpy as np
import pytest

from optomac.antenna import (
    ElementArray,
    array_factor,
    element_amplitude,
    gain,
    synthesize_pattern,
)
from optomac.channel import Arrival, ChannelConfig, received_power, superpose
from optomac.cli import ARTIFACTS, main
from optomac.config import build_parts, load_fixture
from optomac.geometry import HexGrid, neighbors, working_mode_of
from optomac.learning import run_learning
from optomac.scenarios import run_scenario
from optomac.timebase import Rng, Subcycle
from oracles import arbitration_winner, contention_round

FRAME_BITS = 11
RESERVATION_PREFIX = 7  # broadcast recipient + BLOCK opcode, all ones


def report(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n{mark} criterion {num:2d}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def to_bits(value: int, width: int) -> tuple:
    return tuple((value >> (width - 1 - k)) & 1 for k in range(width))


def is_reservation(bits: tuple) -> bool:
    return all(b == 1 for b in bits[:RESERVATION_PREFIX])


@pytest.fixture(scope="module")
def contention_trials():
    """Exhaustive reduced-width pairs plus randomized full-width cliques.

    Shared by criteria 2 (oracle equivalence), 3 (nonblocking) and
    4 (reservation priority); the trials are generated once.
    """
    trials = []
    t0 = time.perf_counter()

    width = 7
    values = [to_bits(v, width) for v in range(2 ** width)]
    for fa in values:
        for fb in values:
            if fa == fb:
                continue
            frames = {"a": fa, "b": fb}
            outcomes, stream = contention_round(frames)
            trials.append((frames, outcomes, stream))

    rng = Rng(2024, 0)
    for _ in range(10_000):
        n = rng.next_int(3, 5)
        frames = {}
        for i in range(n):
            if rng.next_below(8) == 0:
                value = (0b1111111 << 4) | rng.next_below(16)
            else:
                value = rng.next_below(2 ** FRAME_BITS)
            frames[f"n{i}"] = to_bits(value, FRAME_BITS)
        outcomes, stream = contention_round(frames)
        trials.append((frames, outcomes, stream))

    return trials, time.perf_counter() - t0


def test_c01_learning_reproduces_reference_tables(capsys):
    t0 = time.perf_counter()
    cfg = load_fixture("nine_node")
    parts = build_parts(cfg)
    run_learning(cfg.grid, parts.poses, parts.memories, parts.tables,
                 cfg.channel)
    elapsed = time.perf_counter() - t0

    mem = parts.memories
    expected_modes = {
        "s1": (3, Subcycle.T1), "s2": (14, Subcycle.T2),
        "s3": (4, Subcycle.T3), "s4": (16, Subcycle.T3),
        "s5": (18, Subcycle.T1), "a1": (8, Subcycle.T3),
        "a2": (11, Subcycle.T2), "a3": (5, Subcycle.T1),
        "a4": (13, Subcycle.T3),
    }
    ok = (
        mem["s1"].physical == {0b0010, 0b1000, 0b1001}
        and mem["s1"].optimal_pattern == {0b0010: 1, 0b1000: 3, 0b1001: 2}
        and mem["a1"].physical == {0b0000, 0b0001, 0b1001}
        and mem["a1"].optimal_pattern == {0b0000: 2, 0b0001: 1, 0b1001: 3}
        and {n: (m.position_id, m.working_mode)
             for n, m in mem.items()} == expected_modes
        and elapsed < 10.0
    )
    report(capsys, 1, "learning reproduces the nine-node reference tables",
           ok, f"{elapsed:.2f}s < 10s")


def test_c02_arbitration_matches_oracle(capsys, contention_trials):
    trials, elapsed = contention_trials
    mismatches = 0
    for frames, outcomes, stream in trials:
        winner = arbitration_winner(frames.values())
        if stream != winner:
            mismatches += 1
            continue
        if any(outcomes[name].completed != (frames[name] == winner)
               for name in frames):
            mismatches += 1
    ok = mismatches == 0 and elapsed < 60.0
    report(capsys, 2, "bit-serial arbitration matches the lexicographic "
           "oracle", ok,
           f"{len(trials)} trials, {mismatches} mismatches, {elapsed:.1f}s < 60s")


def test_c03_every_round_delivers_a_frame(capsys, contention_trials):
    trials, _ = contention_trials
    blocked = sum(1 for _, outcomes, _ in trials
                  if not any(o.completed for o in outcomes.values()))
    report(capsys, 3, "at least one frame survives every contention round",
           blocked == 0, f"{blocked} blocked rounds of {len(trials)}")


def test_c04_reservations_never_lose_to_data(capsys, contention_trials):
    trials, _ = contention_trials
    violations = 0
    for frames, outcomes, _ in trials:
        winner = arbitration_winner(frames.values())
        for name, frame in frames.items():
            if not is_reservation(frame) or outcomes[name].completed:
                continue
            if not is_reservation(winner):
                violations += 1
            elif outcomes[name].exit_bit < RESERVATION_PREFIX:
                violations += 1
    report(capsys, 4, "a reservation frame never exits against plain data",
           violations == 0, f"{violations} violations")


def test_c05_hidden_terminal_differential(capsys):
    bad_seeds = []
    for seed in range(100):
        basic = run_scenario("hidden_terminal", protocol="basic", seed=seed)
        handshake = run_scenario("hidden_terminal", protocol="handshake",
                                 seed=seed)
        if not (basic.metrics.delivery_ratio() <= 0.5
                and handshake.metrics.delivery_ratio() == 1.0
                and handshake.status == "ok"
                and handshake.icycles <= 100):
            bad_seeds.append(seed)
    report(capsys, 5, "hidden terminal: basic ratio <= 0.5, handshake "
           "ratio = 1.0 within 100 icycles", not bad_seeds,
           f"100 seeds, {len(bad_seeds)} failing")


def test_c06_hex_patch_coloring(capsys):
    t0 = time.perf_counter()
    grid = HexGrid.rect(1.0, 0, 19, 0, 19)
    cells = grid.scan_cells()
    clashes = sum(1 for cell in cells for nb in neighbors(cell)
                  if grid.contains(nb)
                  and working_mode_of(nb) == working_mode_of(cell))
    elapsed = time.perf_counter() - t0
    ok = len(cells) == 400 and clashes == 0 and elapsed < 1.0
    report(capsys, 6, "20x20 hex patch is properly three-colored", ok,
           f"{clashes} clashes, {elapsed:.3f}s < 1s")


def exhaustive_best_power(arr: ElementArray, target) -> float:
    on_amp = element_amplitude(arr.element.v_sat, arr.element)
    best = -1.0
    for mask in product((0.0, 1.0), repeat=len(arr)):
        af = array_factor(arr, np.array(mask) * on_amp, target)
        best = max(best, abs(af) ** 2 / (len(arr) * on_amp) ** 2)
    return best


def array_test_set() -> list:
    def line(n, spacing):
        return [(k * spacing, 0.0, 0.0) for k in range(n)]

    def ring(n, radius):
        return [(radius * np.cos(2 * np.pi * k / n),
                 radius * np.sin(2 * np.pi * k / n), 0.0) for k in range(n)]

    arrays = [
        ElementArray(line(2, 0.5), 1.0),
        ElementArray(line(3, 0.5), 1.0),
        ElementArray(line(4, 0.7), 1.0),
        ElementArray(line(6, 0.5), 1.0),
        ElementArray(ring(5, 0.4), 1.0),
        ElementArray(ring(9, 0.6), 1.0),
        ElementArray(line(12, 0.35), 1.0),
    ]
    inv = 1.0 / np.sqrt(2.0)
    targets = [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (inv, inv, 0.0),
               (0.6, 0.8, 0.0)]
    return [(arr, t) for arr in arrays for t in targets]


def test_c07_pattern_synthesis_is_optimal(capsys):
    worst = 0.0
    for arr, target in array_test_set():
        synthesized = synthesize_pattern(arr, target).target_power
        oracle = exhaustive_best_power(arr, target)
        worst = max(worst, abs(synthesized - oracle))
    ok = worst <= 1e-9

    pair = ElementArray([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)], 1.0)
    broadside = gain(pair, (1.0, 1.0), (0.0, 1.0, 0.0))
    endfire = gain(pair, (1.0, 1.0), (1.0, 0.0, 0.0))
    ok = ok and abs(broadside - 1.0) <= 1e-12 and abs(endfire) <= 1e-12
    report(capsys, 7, "synthesized masks hit the exhaustive optimum; "
           "half-wave pair nulls endfire", ok,
           f"max deviation {worst:.1e} <= 1e-9")


def test_c08_channel_monotonicity(capsys):
    distances = np.linspace(0.05, 25.0, 1000)
    monotone = all(
        all(received_power(1.0, 1.0, a, mu) > received_power(1.0, 1.0, b, mu)
            for a, b in zip(distances, distances[1:]))
        for mu in (0.0, 0.5, 2.0))

    cfg = ChannelConfig()
    rng = Rng(71, 0)
    violations = 0
    for _ in range(10_000):
        arrivals = [
            Arrival(f"t{i}", rng.next_float() * 3.0 * cfg.theta_detect,
                    "top" if rng.next_below(2) else "bottom")
            for i in range(rng.next_int(0, 5))
        ]
        extra = Arrival("extra", rng.next_float() * 3.0 * cfg.theta_detect,
                        "top" if rng.next_below(2) else "bottom")
        before = superpose(arrivals, cfg)
        after = superpose(arrivals + [extra], cfg)
        for b, a in zip(before, after):
            if (a.power < b.power - 1e-15 or a.bit < b.bit
                    or not set(b.strong) <= set(a.strong)
                    or (b.evidence and not a.evidence)):
                violations += 1
    ok = monotone and violations == 0
    report(capsys, 8, "attenuation is monotone and superposition is "
           "OR-monotone", ok,
           f"1000-point sweep, 10000 ticks, {violations} violations")


def test_c09_reruns_are_byte_identical(capsys, tmp_path):
    argv = ["--scenario", "photothermal", "--seed", "11",
            "--trace-level", "power"]
    first, second = tmp_path / "first", tmp_path / "second"
    ok = (main(argv + ["--out", str(first)]) == 0
          and main(argv + ["--out", str(second)]) == 0)
    differing = [name for name in ARTIFACTS
                 if (first / name).read_bytes() != (second / name).read_bytes()]
    ok = ok and not differing
    report(capsys, 9, "identical seed and config reproduce artifacts byte "
           "for byte", ok, f"{len(ARTIFACTS) - len(differing)}/4 files match")


def test_c10_drug_delivery_latency_bound(capsys):
    bound = 4 * 48
    worst = -1
    bad_seeds = []
    for seed in range(100):
        result = run_scenario("drug_delivery", seed=seed)
        latencies = [d["cycles"] for d in result.metrics.latencies
                     if d["kind"] == "actuation"]
        if result.status != "ok" or not latencies or max(latencies) > bound:
            bad_seeds.append(seed)
        worst = max(worst, max(latencies, default=bound + 1))
    report(capsys, 10, "sensing-to-actuation stays within four instruction "
           "cycles", not bad_seeds,
           f"100 seeds, worst {worst} of {bound} cycles")
