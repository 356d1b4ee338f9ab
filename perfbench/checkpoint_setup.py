"""Set-up step of the explain workloads: train and save a stage-2 checkpoint.

Runs in its own process so that the benchmark process's peak memory and
trace cover explanation only. Usage, from the repository root:

    python3 -m perfbench.checkpoint_setup --out DIR/demo.ckpt [--smoke]

It measures machine speed between optimizer steps as it trains and prints
one JSON line: the time those measurements took and their median.
"""

from __future__ import annotations

import argparse
import json
import math

from perfbench.workloads import FULL, SMOKE, SpeedProbe, StepClock, median, moerec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="checkpoint path")
    parser.add_argument("--smoke", action="store_true", help="tiny scale")
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    records, _ = moerec.data.generate_synthetic(moerec.data.SynthSpec(**scale.demo_spec))
    run = moerec.config.RunConfig(**scale.demo_run).validate()
    split = moerec.data.split_records(records, run.seed)
    probe = SpeedProbe()
    probe.measure()
    clock = StepClock(probe=probe, probe_every={1: 25, 2: 5})
    with clock:
        vae, _ = moerec.training.train_stage1(
            split, moerec.training.vae_config_from(run, split), run.stage1())
        clock.start_stage(2, deadline=math.inf)
        bundle, manifest = moerec.training.train_stage2(split, vae, run, run.stage2())
    moerec.training.save_bundle(args.out, bundle, run, manifest)
    print(json.dumps({"probe_time_s": clock.paused, "probe_s": median(probe.samples)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
