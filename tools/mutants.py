"""Run the test suite against each listed mutant of kerrsim and record which tests kill it.

For each mutant the tracked files of the repository are copied to a temporary
directory, the mutant's text is checked to occur exactly once in its file and
replaced there, and the whole suite runs on that copy.  The failing and erroring
tests of each run are written, with the unmutated copy's run first, to the JSON
record ``tools/mutants.json``.

Run from anywhere, with the interpreter that runs the suite (about 45 s a run):

    python tools/mutants.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a decorator for _heralded_branches that memoises, like lru_cache(maxsize=1), on every
# argument but the one at ``index``; the branches of a hit are those of the last miss
_MEMO_DROPPING = """def _memo_dropping(index):
    def wrap(fn):
        latest = []

        @lru_cache(maxsize=1)
        def cached(*key):
            return fn(*latest[0])

        def call(*args):
            latest[:] = [args]
            return cached(*args[:index], *args[index + 1:])

        call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
        return call
    return wrap


@_memo_dropping({index})
def _heralded_branches("""

# (name, file, text, replacement, what the mutant breaks)
MUTANTS = [
    ("halve-gap", "src/kerrsim/tomography.py",
     "    diag.ml_gap_nats = gap\n", "    diag.ml_gap_nats = gap / 2\n",
     "the reported certified gap is half the computed one"),
    ("creation-no-sqrt", "src/kerrsim/fock.py",
     "out[1:] = np.sqrt(np.arange(1, state.dim)) * state.amps[:-1]",
     "out[1:] = np.arange(1, state.dim) * state.amps[:-1]",
     "apply_creation without the square root of n + 1"),
    ("swap-a-b", "src/kerrsim/gates.py",
     "params.a * (n + 1) + params.b * n", "params.b * (n + 1) + params.a * n",
     "a and b swapped in the v(n) superposition operator"),
    ("truncate-no-renormalize", "src/kerrsim/fock.py",
     "return DensityMatrix(dim, block / kept), rho.trace - kept",
     "return DensityMatrix(dim, block), rho.trace - kept",
     "truncate_density keeps the block without renormalizing it"),
    ("witness-no-re12", "src/kerrsim/pipeline.py",
     "return self.re01 < 0.0 and self.re02 < 0.0 and self.re12 > 0.0",
     "return self.re01 < 0.0 and self.re02 < 0.0",
     "vacuum_flip_visible without its re12 > 0 clause"),
    ("sampler-phase-sign", "src/kerrsim/homodyne.py",
     "np.exp(-1j * theta * np.arange(len(psi)))", "np.exp(1j * theta * np.arange(len(psi)))",
     "_phased_vectors with e^{+i m theta}: the sampler's phase sign flipped"),
    ("no-symmetrization", "src/kerrsim/tomography.py",
     "    return 0.5 * (out + out.conj().T)\n", "    return out\n",
     "_project_density without its final Hermitian symmetrization"),
    ("start-at-0", "src/kerrsim/homodyne.py",
     "outcome.start, rows = rows, rows + outcome.rows",
     "outcome.start, rows = 0, rows + outcome.rows",
     "every CSV range's start left at 0 after the parse"),
    ("lossy-ulp", "src/kerrsim/homodyne.py",
     "self.lossy = apply_loss(rho, LossChannel(eta))",
     "self.lossy = apply_loss(rho, LossChannel(float(np.nextafter(eta, 1))))",
     "the sampler's lossy state at an eta one ulp higher"),
    ("loss-forward-as-adjoint", "src/kerrsim/channels.py",
     "out[..., :d - k, :d - k] += np.outer(c, c) * x[..., k:, k:]",
     "out[..., k:, k:] += np.outer(c, c) * x[..., :d - k, :d - k]",
     "the forward loss map with the adjoint's slicing"),
    ("ns-memo-no-amps", "src/kerrsim/klm.py",
     "@lru_cache(maxsize=1)\ndef _heralded_branches(", _MEMO_DROPPING.format(index=2),
     "the NS gate's branch memo keyed without the state's amplitude bytes"),
    ("ns-memo-no-solution", "src/kerrsim/klm.py",
     "@lru_cache(maxsize=1)\ndef _heralded_branches(", _MEMO_DROPPING.format(index=0),
     "the NS gate's branch memo keyed without the solution"),
    ("design-c-order", "src/kerrsim/tomography.py",
     'design = np.empty((rows.size, dim * dim), order="F")',
     'design = np.empty((rows.size, dim * dim), order="C")',
     "the reconstruction's design matrix built C-ordered, not Fortran-ordered"),
    ("design-off-not-doubled", "src/kerrsim/tomography.py",
     "    design[:, dim:] *= 2.0\n", "",
     "the design matrix's off-diagonal columns left undoubled"),
    ("floatrepr-past-100", "src/kerrsim/_floatrepr.py",
     "found = (ax >= 1e-4) & (ax < 100)", "found = (ax >= 1e-4) & (ax < 1e14)",
     "the formatter's array path up to 1e14, past the one-word head of whole parts below 100"),
    ("floatrepr-trailing-zeros", "src/kerrsim/_floatrepr.py",
     "fraction[i] += (last <= i) * _GROUP", "fraction[i] += (last < i) * _GROUP",
     "the fraction's last digit group zero-padded, not stripped of its trailing zeros"),
]


def tracked_files() -> list[str]:
    out = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True)
    return [name for name in out.stdout.decode().split("\0") if name]


def copy_tree(dest: str) -> None:
    for name in tracked_files():
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def apply(tree: str, path: str, text: str, replacement: str) -> None:
    """Replace ``text`` in ``tree/path``; it must occur there exactly once."""
    target = os.path.join(tree, path)
    with open(target) as fh:
        source = fh.read()
    found = source.count(text)
    if found != 1:
        raise SystemExit(f"mutant text occurs {found} times in {path}, not once: {text!r}")
    with open(target, "w") as fh:
        fh.write(source.replace(text, replacement))


def run_suite(tree: str) -> dict:
    """The suite's failing and erroring tests on ``tree``, and its summary line."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    killed = sorted({m[1] for m in map(re.compile(r"^(?:FAILED|ERROR) (\S+)").match, lines) if m})
    return {"killed_by": killed, "summary": lines[-1] if lines else run.stderr.strip()}


def main() -> int:
    record = []
    for name, path, text, replacement, what in [(None, None, None, None, "no mutant"), *MUTANTS]:
        with tempfile.TemporaryDirectory(prefix="kerrsim-mutant-") as tree:
            copy_tree(tree)
            if path is not None:
                apply(tree, path, text, replacement)
            result = run_suite(tree)
        entry = {"mutant": name, "what": what}
        if path is not None:
            entry.update(file=path, text=text, replacement=replacement)
        record.append({**entry, **result})
        print(f"{name or '(none)'}: {len(result['killed_by'])} killing tests; {result['summary']}",
              flush=True)
    with open(os.path.join(ROOT, "tools", "mutants.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
