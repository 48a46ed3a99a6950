"""sha256 of every file the CLI pipelines write, on a fixed set of configs.

Runs ``solve``, ``sweep``, ``certify`` and ``verify`` on the configs below,
each at ``--threads 1`` and ``--threads 2`` (``verify`` also at ``--threads
8``) and each into its own temporary directory, then prints one ``<sha256>  <run>/<file>`` line per output file,
sorted, and last ``digest <sha256>`` over those lines.  A refactor that keeps
the numbers keeps the digest, so comparing two checkouts is one command each:

    python tools/output_hashes.py                    # this checkout's src/
    python tools/output_hashes.py --src OTHER/src    # another checkout

Only ``verify`` may exit 1 (a failed statistical check is an output too); any
other nonzero exit stops the script with the run's stderr.  The whole set
takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OU_2D = {"dim": 2, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}}
# controlled 2-D with a mixed-derivative diffusion: runs the 2-D improvement pass
CONTROLLED_2D = {
    "dim": 2,
    "drift": {"family": "ou", "control_gain": 1.0},
    "cost": {"family": "quadratic", "kappa": 0.375, "rho": 1.0},
    "sigma": [[1.0, 0.0], [0.5, 1.0]],
    "actions": {"interval": [-1, 1]},
}
# a builtin in its config form, with a parameter changed: |u| <= 2 clips the
# minimizer -0.375 x beyond |x| = 16/3
LQ_CLAMP2 = {"builtin": "lq_clamped", "params": {"clamp": 2.0}}
# the affine-quadratic pair of lq_clamped over a finite action list: runs the list's table
LQ_LISTED = {
    "dim": 1,
    "drift": {"family": "affine"},
    "cost": {"family": "quadratic", "kappa": 0.375, "rho": 1.0},
    "actions": [-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0],
}
MODELS = {"ou2d": OU_2D, "c2d": CONTROLLED_2D, "lq2": LQ_CLAMP2, "lql": LQ_LISTED}

_1D = ["--radii", "2,4,6,8", "--h", "0.01"]
_2D = ["--radii", "2,3,4", "--h", "0.1"]
_MC = ["--paths", "2000", "--horizon", "20"]
# more paths than montecarlo.CHUNK_PATHS, so the thread counts split the marches
_MC_CHUNKED = ["--paths", "5000", "--horizon", "2"]

# run name -> CLI arguments; "{ou2d}", "{c2d}", "{lq2}" and "{lql}" are replaced by the models' config files
RUNS = {
    "solve-ou": ["solve", "--model", "ou_quadratic", "--r", "4", "--h", "0.01"],
    "solve-lq": ["solve", "--model", "lq_clamped", "--r", "4", "--h", "0.01"],
    "solve-ou2d": ["solve", "--config", "{ou2d}", "--r", "4", "--h", "0.1"],
    "solve-c2d": ["solve", "--config", "{c2d}", "--r", "3", "--h", "0.1"],
    "sweep-ou": ["sweep", "--model", "ou_quadratic", *_1D],
    "sweep-lq": ["sweep", "--model", "lq_clamped", *_1D],
    "sweep-ou2d": ["sweep", "--config", "{ou2d}", *_2D],
    "sweep-c2d": ["sweep", "--config", "{c2d}", "--radii", "2,3", "--h", "0.1"],
    "sweep-bnm": ["sweep", "--model", "bounded_nm", *_1D],
    "sweep-lq2": ["sweep", "--config", "{lq2}", *_1D],
    "sweep-lql": ["sweep", "--config", "{lql}", *_1D],
    # the upwind drift weights, in 1-D and in 2-D with the mixed term
    "sweep-lq-upwind": ["sweep", "--model", "lq_clamped", *_1D, "--scheme", "upwind"],
    "solve-c2d-upwind": ["solve", "--config", "{c2d}", "--r", "3", "--h", "0.1", "--scheme", "upwind"],
    "certify-ou": ["certify", "--model", "ou_quadratic", *_1D, *_MC],
    "certify-lq": ["certify", "--model", "lq_clamped", *_1D, *_MC],
    "certify-ou2d": ["certify", "--config", "{ou2d}", *_2D, *_MC],
    "certify-ou-cut": ["certify", "--model", "ou_quadratic", *_1D, *_MC,
                       "--gamma", "0.2", "--r-cut", "1.5"],
    "certify-ou2d-cut": ["certify", "--config", "{ou2d}", *_2D, *_MC,
                         "--gamma", "0.05", "--r-cut", "0.5"],
    "verify": ["verify", "--model", "ou_quadratic", *_MC],
    "verify-seed7": ["verify", "--model", "ou_quadratic", *_MC, "--suite", "golden", "--seed", "7"],
    "verify-chunked": ["verify", "--model", "ou_quadratic", *_MC_CHUNKED],
}
THREADS = (1, 2)
VERIFY_THREADS = (1, 2, 8)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_all(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = []
    with tempfile.TemporaryDirectory(prefix="riskeig-hashes-") as tmp:
        tmp = Path(tmp)
        configs = {}
        for key, model in MODELS.items():
            path = tmp / f"{key}.json"
            path.write_text(json.dumps({"model": model}))
            configs["{%s}" % key] = str(path)
        for name, args in RUNS.items():
            for threads in VERIFY_THREADS if args[0] == "verify" else THREADS:
                tag = f"{name}-t{threads}"
                out = tmp / tag
                cmd = [sys.executable, "-m", "riskeig.cli"]
                cmd += [configs.get(a, a) for a in args]
                cmd += ["--threads", str(threads), "--out", str(out)]
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
                if proc.returncode != 0 and not (proc.returncode == 1 and args[0] == "verify"):
                    sys.exit(f"{tag} exited {proc.returncode}:\n{proc.stderr}")
                print(f"ran {tag} (exit {proc.returncode})", file=sys.stderr)
                for path in sorted(p for p in out.rglob("*") if p.is_file()):
                    lines.append(f"{_sha256(path)}  {tag}/{path.relative_to(out).as_posix()}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the riskeig package (default: this checkout's src/)")
    src = parser.parse_args().src.resolve()
    if not (src / "riskeig" / "__init__.py").is_file():
        sys.exit(f"no riskeig package under {src}")
    lines = run_all(src)
    print("\n".join(lines))
    print("digest", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
