#!/usr/bin/env python3
"""Diff fresh BENCH_*.json files against the committed baselines.

Usage (from the repository root, after building into BUILD_DIR and
running bench_micro_kernels, bench_serving and bench_fig09_end_to_end
there):

    python3 bench/perf_diff.py [BUILD_DIR]     # default: build

Baselines are the BENCH_*.json files at the repository root. Two kinds
of key are checked:

- Host-timed keys (events/s, elements/s, wall-clock rates) print one
  line with their baseline-to-current ratio; a key that moved past its
  bound in its "worse" direction prints as a GitHub Actions
  ``::warning::`` annotation. These never fail the step, because CI
  machines vary.
- Deterministic simulated keys must equal the baseline exactly. A
  mismatch prints as ``::error::`` and the script exits 1: the
  simulator's numbers moved, and the baseline needs a deliberate
  re-commit alongside the change that moved them.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Simulated-clock serving keys. The SLO smoke scenario, the KV capacity
# and swap/prefix-share points, the worst fault corner (5% UCP +
# channel 0 offline) and the reliability smoke corner (bump placement,
# ECC 32, fastest refresh on the aged device) run identically in
# --smoke and in full runs, and are fully deterministic, so they must
# reproduce the committed full-run baseline digit for digit.
SERVING_EXACT = [
    'slo_smoke.fcfs.finite_run_tokens_per_s',
    'slo_smoke.fcfs.ttft.p95_ms',
    'slo_smoke.fcfs.tbt.p95_ms',
    'slo_smoke.chunked256.finite_run_tokens_per_s',
    'slo_smoke.chunked256.ttft.p95_ms',
    'slo_smoke.chunked256.tbt.p95_ms',
    'slo_smoke.chunked256.ttft.p50_ms',
    'kv_sweep.budget50.finite_run_tokens_per_s',
    'kv_sweep.budget50.ttft.p95_ms',
    'kv_sweep.swap50.ttft.p95_ms',
    'kv_sweep.swap50.swap_out_blocks',
    'kv_sweep.swap50.swap_in_blocks',
    'kv_sweep.swap50.kv_swap_channel_mb',
    'kv_sweep.share_on.prefix_hit_blocks',
    'kv_sweep.share.users_per_gb_off',
    'kv_sweep.share.users_per_gb_on',
    'fault_sweep.ucp5_offline.goodput_tokens_per_s',
    'fault_sweep.ucp5_offline.ttft.p95_ms',
    'reliability_sweep.bump_ecc32_r1000.goodput_tokens_per_s',
    'reliability_sweep.bump_ecc32_r1000.retry_channel_mb',
    'reliability_sweep.bump_ecc32_r1000.tbt.p99_ms',
    'reliability_sweep.bump_ecc32_r1000.wear_spread_pe',
    'reliability_sweep.bump_ecc32_r1000.refresh_mb',
]


def fig09_exact_keys(base):
    """The single-stream decode figure: every tokens/s point and every
    headline ratio. They come from the same read-compute path serving
    runs, so they must reproduce the committed baseline exactly."""
    return [k for k in base
            if k.endswith('.tokens_per_s') or k.startswith('headline.')]


def load(path):
    with open(path) as f:
        return json.load(f)


def diff(base, now, lower_is_worse, higher_is_worse, either_is_worse=()):
    """Warn-only ratio check of host-timed keys."""
    for key, worse_below, worse_above in (
            [(k, True, False) for k in lower_is_worse] +
            [(k, False, True) for k in higher_is_worse] +
            [(k, True, True) for k in either_is_worse]):
        if key not in base or key not in now:
            print(f'::warning::perf key {key} missing '
                  f'(baseline: {key in base}, '
                  f'current: {key in now})')
            continue
        b, n = float(base[key]), float(now[key])
        ratio = n / b if b else float('inf')
        line = (f'{key}: baseline {b:.3g} -> current {n:.3g} '
                f'({ratio:.2f}x)')
        # CI machines vary; only flag clear regressions.
        if (worse_below and ratio < 0.7) or \
           (worse_above and ratio > 1.4):
            print(f'::warning::perf regression {line}')
        else:
            print(line)


def exact(base, now, keys):
    """Check deterministic keys for equality; return the mismatch count."""
    bad = 0
    for key in keys:
        if key not in base or key not in now:
            print(f'::error::deterministic key {key} missing '
                  f'(baseline: {key in base}, current: {key in now})')
            bad += 1
        elif now[key] != base[key]:
            print(f'::error::deterministic key {key} moved: '
                  f'baseline {base[key]!r} -> current {now[key]!r}')
            bad += 1
        else:
            print(f'{key}: {now[key]!r} (exact)')
    return bad


def main(build_dir):
    # The bare-kernel events/sec keys diff in BOTH directions: a drop
    # is a kernel regression, while a silent jump means the calendar
    # or the workload changed shape and the committed baseline needs a
    # deliberate re-commit (the hierarchical-wheel calendar moved
    # gap_events_per_s by design). The flash-channel and fleet keys
    # count work (pages, simulated tokens), so a change that does the
    # same work in fewer events reads as faster, never as a jump.
    diff(load(os.path.join(ROOT, 'BENCH_micro.json')),
         load(os.path.join(build_dir, 'BENCH_micro.json')),
         lower_is_worse=[
             'gemv512.blocked_elems_per_s',
             'gemv512.simd_elems_per_s',
             'decode.preset_s_opt6_7b_tokens_per_s',
             'fault.ladder_draws_per_s',
             'event_queue.burst_events_per_s',
             'flash_channel.pages_per_s',
             'fleet.sim_tokens_per_wall_s',
         ],
         higher_is_worse=[],
         either_is_worse=[
             'event_queue.events_per_s',
             'event_queue.gap_events_per_s',
         ])

    bad = 0
    for name, keys in (('BENCH_serving.json', lambda b: SERVING_EXACT),
                       ('BENCH_fig09.json', fig09_exact_keys)):
        base = load(os.path.join(ROOT, name))
        n = exact(base, load(os.path.join(build_dir, name)), keys(base))
        if n:
            print(f'::error::{n} deterministic key(s) differ from the '
                  f'committed {name}')
        bad += n
    return 1 if bad else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else 'build'))
