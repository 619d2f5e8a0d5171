"""One set-up sample: ``python3 probe.py <src-dir> <cli argv...>``.

In a fresh interpreter, imports maslovflow from ``<src-dir>``, parses and
merges the workload's configuration as the CLI does, builds the model and
its grids, then prints the monotonic clock. run.py reads the clock before it
starts this process, so the difference is the set-up time a CLI call pays
before its first x-step.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import maslovflow.cli as cli  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[2:])
cfg = cli._merge_config(args)
field = cli.get_model(cfg.require_model(), cfg.tolerances())
cfg.x_grid()
if cfg.lambda_range is not None and (cfg.lambda_count or cfg.lambda_step):
    cfg.lambda_grid()
print(repr(time.monotonic()))
