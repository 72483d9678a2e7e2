"""Job entry point — run the flagship ER pipeline over a pages Parquet
directory and write clusters as partitioned Parquet with a lineage
manifest. Designed for ``ray job submit`` (north_rule):

    ray job submit -- python -m pubmed_and_method_ray.run \
        --input /data/pages --output /data/clusters --workdir /data/ckpt

On a cluster the script joins the existing Ray session; standalone it
starts a local one. All stages resume from ``--workdir`` checkpoints.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True, help="pages Parquet dir/file")
    p.add_argument("--output", required=True, help="clusters output dir")
    p.add_argument("--workdir", default=None, help="checkpoint dir (resumable)")
    p.add_argument("--model", default=None, help="GBT model JSON path (default: pretrained)")
    p.add_argument("--n-max", type=int, default=512)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--num-cpus", type=int, default=None, help="standalone only")
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipelines.er import run_er_pipeline
    from .sources import checkpoint as ckpt
    from .state import load_pretrained_idf, load_pretrained_model_json

    if args.model:
        with open(args.model) as f:
            model_json = f.read()
    else:
        model_json = load_pretrained_model_json()
    if model_json is None:
        print("no model available; run python -m pubmed_and_method_ray.state.train", file=sys.stderr)
        return 2

    t0 = time.time()
    from pubmed_and_method_ray.sources.io import read_parquet_clean

    idf = load_pretrained_idf()
    pages = read_parquet_clean(args.input, file_extensions=["parquet"])
    out = run_er_pipeline(
        pages,
        model_json=model_json,
        idf=idf,
        workdir=args.workdir,
        n_max=args.n_max,
        threshold=args.threshold,
        keep_gold=False,
        evaluate=False,
    )
    # the clusters stage's fingerprint covers every input that can
    # change the clusters: a rerun into the same --output with other or
    # rewritten input files, model, idf, parameters or pipeline version
    # recomputes
    clusters = ckpt.checkpoint(
        out["clusters"], args.output, "clusters_out", out["clusters_fp"]
    )
    n = clusters.count()
    elapsed = time.time() - t0
    print(
        json.dumps(
            {
                "pages_clustered": int(n),
                "output": args.output,
                "elapsed_sec": round(elapsed, 2),
                "pages_per_sec": round(n / elapsed, 1),
            }
        )
    )
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
