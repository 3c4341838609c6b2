"""One sha256 over everything a fixed list of CLI commands writes.

    python tools/cli_manifest.py SRC

Runs each command of COMMANDS as ``python -m walshvie`` with SRC (a
``src`` directory that holds the ``walshvie`` package) first on
PYTHONPATH, one after another, in a new temporary directory that holds
the problem files of PROBLEMS, with BLAS pinned to one thread and
WALSHVIE_SEED unset.  Command i writes into ``out/iii``, which for the
commands of OUT_IS_FILE is an empty regular file.  It prints the sha256
of the manifest: per command its arguments, exit status, stdout and
stderr, and the path and sha256 of every file it wrote.  Two source
trees that print the same hash gave the same bytes on every command.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

_EXACT = "exact = tanh((1/30)*B + atanh(1/10))\n"
_EXAMPLE2 = "x0 = 1/10\nk1 = -(1/30)^2\nk2 = 1/30\nbeta = x*(1-x^2)\nsigma = 1-x^2\n"

# file name -> text; every file with an exact solution can be converged
PROBLEMS = {
    "difference.txt": "x0 = 1/10\nk1 = -(1/30)^2*exp(-(t-s))\nk2 = (1/30)*exp(-(t-s)/2)\n"
    "beta = x*(1-x^2)\nsigma = 1-x^2\n" + _EXACT,
    "triangle.txt": "x0 = 1/10\nk1 = -(1/30)^2*exp(-t)*(1+s)\nk2 = (1/30)*exp(-t)*(1+s)\n"
    "beta = x*(1-x^2)\nsigma = 1-x^2\n" + _EXACT,
    "powers.txt": "x0 = 1\nk1 = -1/10\nk2 = 1/5\nbeta = x^-1\nsigma = sqrt(x)*x^0.5/(1+x)\n",
    "blowup.txt": "x0 = 1/10\nk1 = -4\nk2 = 2\nbeta = x*(1-x^2)\nsigma = 1-x^2\n"
    "exact = tanh(2*B + atanh(1/10))\n",
    "expbeta.txt": "x0 = 1\nk1 = 1/4\nk2 = 1\nbeta = exp(x*x)\nsigma = 1\n" + _EXACT,
    "kernel.txt": "label = kernel-file\nx0 = 1/10\nk1 = -(1/30)^2*exp(-(t-s))\nk2 = (1/30)*exp(-(t-s)/2)\n"
    "beta = x*(1-x^2)\nsigma = 1-x^2\n",
    "syntax.txt": "x0 = 0\nk1 = 1\nk2 = 1\nbeta = x*(\nsigma = 1\n",
    "function.txt": "x0 = 0\nk1 = 1\nk2 = 1\nbeta = foo(x)\nsigma = 1\n",
    "variable.txt": "x0 = 0\nk1 = 1\nk2 = 1\nbeta = y\nsigma = 1\n",
    "same.txt": _EXAMPLE2.replace("beta = x*(1-x^2)", "beta = 1-x^2") + _EXACT,
    "linear.txt": "x0 = 1/10\nk1 = -1/4\nk2 = 1/2\nbeta = x\nsigma = x\n" + _EXACT,
    "constant.txt": _EXAMPLE2.replace("sigma = 1-x^2", "sigma = 1/2") + _EXACT,
    "sqrt.txt": "x0 = 1/10\nk1 = 0\nk2 = 1\nbeta = 0*x\nsigma = sqrt(x)\n" + _EXACT,
    "difference-blowup.txt": "x0 = 1/10\nk1 = -4*exp(-(t-s))\nk2 = 2*exp(-(t-s))\n"
    "beta = x*(1-x^2)\nsigma = 1-x^2\nexact = tanh(2*B + atanh(1/10))\n",
    "triangle-blowup.txt": "x0 = 1/10\nk1 = -4*exp(-t)*(1+s)\nk2 = 2*exp(-t)*(1+s)\n"
    "beta = x*(1-x^2)\nsigma = 1-x^2\nexact = tanh(2*B + atanh(1/10))\n",
    "constant-beta.txt": _EXAMPLE2.replace("beta = x*(1-x^2)", "beta = 1/20") + _EXACT,
    "constant-exact.txt": _EXAMPLE2 + "exact = 1/10\n",
}

_PER_SEED = [
    "run --example 1",
    "run --example 2",
    "run --example 1 --oracle --dump-paths",
    "run --example 2 --oracle --dump-paths",
    "converge --example 1",
    "converge --example 2",
    "converge --problem difference.txt",
    "converge --problem triangle.txt",
    "run --problem difference.txt --oracle",
    "run --problem triangle.txt --oracle",
    "run --problem powers.txt --oracle",
    "run --problem blowup.txt",
    "run --problem expbeta.txt",
    "run --problem kernel.txt --m 2048 --oracle",
    "run --example 2 --m 4096 --trials 16 --oracle",
    "paths --m 8",
    "matrices --m 64",
]

# commands that argparse refuses, with exit status 2
PARSER_REJECTS = ["run --example 1 --m 12", "run --example 1 --m 8192"]

# commands whose --out is an empty regular file, made before they run
OUT_IS_FILE = [
    "run --example 1 --seed 1",
    "converge --example 1 --seed 1",
    "matrices --m 4 --seed 1",
    "paths --m 4 --seed 1",
]

COMMANDS = [f"{command} --seed {seed}" for seed in (0, 42, 2**32 - 1, 2**32) for command in _PER_SEED] + [
    "run --problem syntax.txt",
    "run --problem function.txt",
    "converge --problem variable.txt",
    "run --problem blowup.txt --trials 5000 --seed 3",
    "run --example 1 --trials 10000",
    "run --example 2 --seed 18446744073709551616",
    "converge --example 1 --seed -1",
    "matrices --m 1024",
    "matrices --m 2",
    "paths --m 4096 --trials 5",
    "run --problem triangle.txt --m 4096 --trials 2",
    "converge --example 1 --resolutions 8,16,32,64,128,256 --trials 1000 --seed 42",
    *PARSER_REJECTS,
    "run --example 1 --trials 0",
    "converge --example 1 --resolutions 16,8,32",
    "converge --example 1 --resolutions 8,16",
] + [
    f"{command} --problem {name}.txt --seed 7"
    for name in ("same", "linear", "constant", "sqrt", "difference-blowup", "triangle-blowup", "expbeta")
    for command in ("run", "converge")
] + [
    f"{command} --problem {name}.txt --seed 7"
    for name in ("constant-beta", "constant-exact")
    for command in ("run --oracle", "converge")
] + OUT_IS_FILE


def manifest(src):
    """The manifest lines of every command of COMMANDS run against ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "WALSHVIE_SEED"}
    env.update(PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for name, text in PROBLEMS.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)
        for i, command in enumerate(COMMANDS):
            out = os.path.join("out", f"{i:03d}")
            if command in OUT_IS_FILE:
                os.makedirs(os.path.join(work, "out"), exist_ok=True)
                open(os.path.join(work, out), "wb").close()
            argv = [sys.executable, "-m", "walshvie", *command.split(), "--out", out]
            done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            lines.append(f"{command} -> {done.returncode}")
            for stream in (done.stdout, done.stderr):
                lines.append(hashlib.sha256(stream).hexdigest())
            outdir = os.path.join(work, out)
            for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []:
                with open(os.path.join(outdir, name), "rb") as fh:
                    lines.append(f"{name} {hashlib.sha256(fh.read()).hexdigest()}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC")
    print(hashlib.sha256("\n".join(manifest(sys.argv[1])).encode()).hexdigest())
