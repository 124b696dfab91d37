import ast
import subprocess
import sys
from pathlib import Path

import cforbit

# the package's public names; __all__ is derived from the imports in __init__.py
PUBLIC = """
    CfeWord ConvergentList CrossSectionPoint CrossingRecord DegenerateStartError
    DigitHistogram EmpiricalMeasure FdHistogram HeightBoundError HeightBoundReport
    Interval LEN_RATE LN2 LatticeError MassEscapeBoundError
    MassEscapeReport Modulus NumericEvent ReducedFraction
    SectionDomainError SweepSummary SymmetryError ZarembaCensus __version__
    averaged_height_tail brute_force_censuses cfe_digits cfe_len
    convergents coprime_array count_coprime_upto crossing_sequence
    cylinder_interval detect_crossings_numeric detect_events_numeric
    digit_one_frequency digit_probability dispersion
    dual_residue enumerate_bounded euler_phi exponent_fit factorize
    fd_cell_masses first_crossing from_digits gauss_cdf gauss_density gauss_map
    haar_fd_histogram haar_fd_sample haar_height_tail
    height_bound_check kappa_quadrature ks_distance len_stats mass_escape_count
    mean_return_time measure_interval members nu_bar nu_pq omega orbit_fd_histogram
    orbit_height_tail orbit_samples return_map return_time
    sample_section uniform_edges verify_symmetry
    word_frequency
""".split()


def test_all_is_exactly_the_public_set():
    assert len(cforbit.__all__) == len(set(cforbit.__all__))
    assert set(cforbit.__all__) == set(PUBLIC)
    assert all(hasattr(cforbit, name) for name in PUBLIC)


def test_import_does_not_load_mpmath():
    # only kappa_quadrature needs it, and imports it when called
    code = "import sys, cforbit, cforbit.cli; assert 'mpmath' not in sys.modules"
    src = str(Path(cforbit.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)


def test_mpmath_and_threading_each_stay_in_one_module():
    # the 50-digit quadrature is crosssec's and the worker layer (threads and their
    # pool) is stats'; the mass-escape margin checks run on decimal, whose context is per thread
    importers = {"mpmath": set(), "threading": set(), "concurrent": set()}
    for path in sorted(Path(cforbit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in importers:
                    importers[name.split(".")[0]].add(path.name)
    assert importers == {"mpmath": {"crosssec.py"}, "threading": {"stats.py"}, "concurrent": {"stats.py"}}


def test_a_one_chunk_pass_does_not_load_the_thread_pool():
    # only a pass with extra workers imports concurrent.futures
    code = (
        "import sys, cforbit; cforbit.mass_escape_count(10007, 2.0, 3.0, threads=8);"
        " assert 'concurrent.futures' not in sys.modules"
    )
    src = str(Path(cforbit.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)
