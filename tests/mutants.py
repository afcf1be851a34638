"""Mutation check: each rule listed below must have a test that fails without it.

A mutant is one exact text replacement in one source file, with the tests
that should catch it. For each mutant the script copies ``src/`` into a
temporary directory, makes the replacement there (the old text must occur
exactly once), and runs those tests with pytest against the copy. The
mutant is killed when they fail. A mutant marked equivalent changes no
result that a test could see, and the mark says why; it is run as well,
and only reported. The script exits 1 when a mutant that is not marked
equivalent survives, or when an old text is not found; the working tree
is never edited.

Run from the root of a checkout, with pytest installed:

    python tests/mutants.py           # every mutant
    python tests/mutants.py gap tied  # those whose name contains a word given
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RANKERS = "src/fairank/rankers.py"
EXPERIMENTS = "src/fairank/experiments.py"
IO = "src/fairank/io.py"
T_RANKERS = "tests/test_rankers.py"
T_IO = "tests/test_io.py"
T_BAD_SETTING = "tests/test_cli.py::test_invalid_run_setting_exits_one_before_any_output"
T_LOADED = "tests/test_cli.py::test_a_one_process_graph_command_loads_no_pool_and_no_mean_field"
T_PARSE = f"{T_IO}::test_chunked_load_matches_the_line_parser"
T_DOUBLED = f"{T_RANKERS}::test_a_check_finds_the_other_copy_of_a_doubled_eigenvalue"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple  # pytest node ids or paths, relative to the root
    equivalent: str = ""  # why no test can tell it from the original


MUTANTS = [
    Mutant(
        "no tie gap", RANKERS,
        "_DEGENERATE_GAP = 1e-8", "_DEGENERATE_GAP = 0",
        (f"{T_RANKERS}::test_a_start_tied_at_a_boundary_read_leaves_a_cold_solve",
         f"{T_RANKERS}::test_degeneracy_probe_settles_on_tied_spectra"),
    ),
    Mutant(
        "tied at a strict gap", RANKERS,
        "theta[k - 1] - theta[k] <= _tie_tol(theta)", "theta[k - 1] - theta[k] < _tie_tol(theta)",
        (T_RANKERS,),
        equivalent="a gap equal to the tie tolerance, 1e-8 theta_1 to the last bit, "
                   "takes a spectrum built for it; exact ties have a gap of 0, "
                   "which is below the tolerance either way",
    ),
    Mutant(
        "a missed eigenvalue found only at theta_k itself", RANKERS,
        "if top >= seen[k - 1] - gap:", "if top >= seen[k - 1]:",
        (T_DOUBLED,),
    ),
    Mutant(
        "theta_{k+1} found again within ten tie tolerances", RANKERS,
        "if abs(top - seen[k]) <= gap:", "if abs(top - seen[k]) <= 10 * gap:",
        (f"{T_RANKERS}::test_the_deflated_check_stops_at_its_verdict",
         T_DOUBLED),
    ),
    Mutant(
        "a check run on A^T A undeflated after its first row", RANKERS,
        "            if deflate is not None:\n                _project_off(w, found)\n"
        "            t[: j + s, j]",
        "            t[: j + s, j]",
        (f"{T_RANKERS}::test_a_warm_solve_is_the_first_krylov_start",),
    ),
    Mutant(
        "a check that clears the start at its cap", RANKERS,
        "            if deflate is not None or not settled and s == 1:\n"
        "                return None\n",
        "            if deflate is not None:\n                return True\n"
        "            if not settled and s == 1:\n                return None\n",
        (f"{T_RANKERS}::test_a_check_with_no_verdict_by_its_cap_gives_up",),
    ),
    Mutant(
        "ties tested at the top k only", RANKERS,
        "for j in {*lower, k}", "for j in {k}",
        (f"{T_RANKERS}::test_a_start_tied_at_a_boundary_read_leaves_a_cold_solve",
         f"{T_RANKERS}::test_readings_below_a_larger_solve_match_their_own_solves"),
    ),
    Mutant(
        "hits keeps unresolved authorities", RANKERS,
        "    a[np.abs(a) < ctrl.tol * np.abs(a).max()] = 0.0", "",
        (f"{T_RANKERS}::test_ritz_rankers_snap_what_a_krylov_solve_does_not_resolve",),
    ),
    Mutant(
        "subspace HITS keeps unresolved scores", RANKERS,
        "    scores[scores < ctrl.tol**2 * f_weights.sum()] = 0.0", "",
        (f"{T_RANKERS}::test_ritz_rankers_snap_what_a_krylov_solve_does_not_resolve",),
    ),
    Mutant(
        "a spectrum serves any k", RANKERS,
        " or k not in shared.ks", "",
        (f"{T_RANKERS}::test_a_spectrum_serves_only_what_it_was_built_for",),
    ),
    Mutant(
        "exponents divide by a growth rate of 0", "src/fairank/meanfield.py",
        '    if k_b <= 0.0 or k_r <= 0.0:\n        raise ArithmeticError("degenerate growth rate")\n',
        "",
        ("tests/test_meanfield.py::test_exponents_reject_a_growth_rate_that_rounds_to_zero",),
    ),
    Mutant(
        "ties ranked by descending id", RANKERS,
        "tiebreak = np.arange(n)", "tiebreak = -np.arange(n)",
        (f"{T_RANKERS}::test_rank_order_descending_with_id_ties",),
    ),
    Mutant(
        "strict exits 0 on a ranker that did not converge", "src/fairank/cli.py",
        "return EXIT_NONCONVERGED", "return EXIT_OK",
        ("tests/test_cli.py::test_rank_strict_nonconvergence_exits_three",),
    ),
    Mutant(
        "a share curve of one grid point", EXPERIMENTS,
        "self.grid_points >= 2", "self.grid_points >= 1",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "a base seed of -1", EXPERIMENTS,
        "self.base_seed >= 0", "self.base_seed >= -1",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "randomized HITS with no restart", EXPERIMENTS,
        "0.0 < self.eps", "0.0 <= self.eps",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "reps of 0", EXPERIMENTS,
        "self.reps >= 1", "self.reps >= 0",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "threads of 0", EXPERIMENTS,
        "self.threads >= 1", "self.threads >= 0",
        ("tests/test_cli.py::test_zero_threads_exits_one",),
    ),
    Mutant(
        "an algorithm named twice", EXPERIMENTS,
        "len(set(self.algos)) == len(self.algos)", "len(set(self.algos)) <= len(self.algos)",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "PageRank with no teleport", EXPERIMENTS,
        "0.0 <= self.eta < 1.0", "0.0 <= self.eta <= 1.0",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "an eigenspace of dimension 0", EXPERIMENTS,
        "self.k >= 1", "self.k >= 0",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "a tie-shuffle seed of -1", EXPERIMENTS,
        "self.tie_shuffle_seed >= 0", "self.tie_shuffle_seed >= -1",
        (T_BAD_SETTING,),
    ),
    Mutant(
        "the process pool loaded at start-up", EXPERIMENTS,
        "from itertools import repeat\n",
        "from concurrent.futures import ProcessPoolExecutor\nfrom itertools import repeat\n",
        (T_LOADED,),
    ),
    Mutant(
        "the mean field loaded at start-up", "src/fairank/cli.py",
        "from .io import table, write_text\n",
        "from .io import table, write_text\nfrom .meanfield import mean_field_report\n",
        (T_LOADED,),
    ),
    Mutant(
        "decimals with leading zeros", IO,
        "int(widths.sum()) + count == digits", "int(widths.sum()) + count <= digits",
        (T_PARSE,),
    ),
    Mutant(
        "decimals past 2**63 - 1 read as that value", IO,
        " or values.max() >= _POWERS_OF_TEN[-1]", "",
        (T_PARSE,),
    ),
    Mutant(
        "any byte in the color slot", IO,
        "\n            or seps[1::3].translate(None, _COLOR_BYTES)", "",
        (T_PARSE,),
    ),
    Mutant(
        "numbers written with their padding zeros", IO,
        "                np.not_equal(value, 0, out=keep[:, place - 1])\n", "",
        (f"{T_IO}::test_ascii_rows_gives_str_of_each_value_at_every_width",),
    ),
    Mutant(
        "a byte that is not UTF-8 named by its chunk's first line", IO,
        '        lineno += head.count(b"\\n")\n', "",
        (f"{T_IO}::test_a_byte_that_is_not_utf8_names_its_file_and_line",),
    ),
    Mutant(
        "duplicate colors found by an unstable sort", IO,
        'np.argsort(values, kind="stable")', "np.argsort(values)",
        (f"{T_IO}::test_chunked_load_matches_the_line_parser",),
    ),
    Mutant(
        "an unterminated last record left uncounted", IO,
        "return lines + unterminated", "return lines",
        (T_IO,),
        equivalent="the count falls short only for a chunk whose last line has no "
                   "newline, the file's last chunk, which then goes to the line "
                   "parser and gives the same records",
    ),
]


def failed(tests, mutant: Mutant | None = None) -> bool:
    """Whether ``tests`` fail against a copy of ``src/`` that holds ``mutant``
    (none: the copy as it is)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = Path(tmp) / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise LookupError(f"{mutant.path}: the text of {mutant.name!r} occurs "
                                  f"{text.count(mutant.old)} times, not once")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import fairank; print(fairank.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not where.stdout.startswith(str(src)):
            raise RuntimeError(f"fairank imports from {where.stdout.strip()}, not the copy")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        if run.returncode not in (0, 1):  # 1: tests failed; anything else: no verdict
            raise RuntimeError(f"pytest exited {run.returncode} on {' '.join(tests)}:\n"
                               + run.stdout[-2000:])
        return run.returncode == 1


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    t0 = time.perf_counter()
    every_test = list(dict.fromkeys(t for m in chosen for t in m.tests))
    if failed(every_test):
        print("the tests fail on the source as it is, so no mutant can be judged")
        return 1
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        try:
            killed = failed(mutant.tests, mutant)
        except LookupError as exc:
            print(f"MISSING   {exc}")
            survivors.append(mutant.name)
            continue
        verdict = "killed" if killed else "survived"
        if mutant.equivalent:
            verdict += " (equivalent: " + mutant.equivalent + ")"
        elif not killed:
            verdict = "SURVIVED"
            survivors.append(mutant.name)
        print(f"{time.perf_counter() - start:6.1f} s  {mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen)} mutants in {time.perf_counter() - t0:.1f} s; "
          f"{len(survivors)} survived or missing")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
