"""Source-tree hygiene gates.

ISSUE-9 satellite: ``src/repro/kernels/`` sat in the tree for several PRs
containing nothing but a ``__pycache__`` — an importable name with no
code.  This module keeps that class of rot from coming back:

* no directory under ``src/`` may be empty once caches are ignored;
* every directory holding Python modules must be a package
  (``__init__.py``) — data-only directories (e.g. the bundled DIMACS
  instances) are exempt;
* no package may consist of a single zero-byte ``__init__.py``;
* every top-level public function or class in ``src/`` is named by some
  code other than the tests (see :data:`TEST_ONLY_ALLOWLIST`);
* every fully-qualified ``repro.`` name a docstring role or a doc page
  points at still exists, so a rename or deletion cannot leave stale
  references behind.
"""

import ast
import importlib
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Trees whose code counts as a real caller besides ``src/`` itself.
_CALLER_TREES = ("benchmarks", "examples", "perfbench")

#: Public definitions that only tests name, each kept on purpose.
TEST_ONLY_ALLOWLIST = {
    "AllDifferentConstraint": "part of the CSP model oracle the delta kernels are checked against",
    "CSPPermutationAdapter": "part of the CSP model oracle the delta kernels are checked against",
    "RandomizedQuicksort": "a non-CSP Las Vegas algorithm from the paper's future work",
    "bootstrap_speedup_ci": "the confidence interval the planned per-stage prediction check uses",
}

#: Cache droppings: never real content, never inspected.
_IGNORED = {"__pycache__", ".ipynb_checkpoints"}


def _source_dirs() -> list[Path]:
    out = []
    for path in sorted(SRC.rglob("*")):
        if path.is_dir() and path.name not in _IGNORED:
            if not any(part in _IGNORED for part in path.relative_to(SRC).parts):
                out.append(path)
    return out


def _real_contents(directory: Path) -> list[Path]:
    """Files and non-cache subdirectories directly inside ``directory``."""
    return [p for p in directory.iterdir() if p.name not in _IGNORED]


def test_no_empty_directories():
    """Every source directory holds real content, not just cache droppings."""
    empty = [
        str(d.relative_to(SRC)) for d in _source_dirs() if not _real_contents(d)
    ]
    assert empty == [], f"empty source directories (delete them): {empty}"


def test_python_directories_are_packages():
    """A directory shipping Python modules must be importable."""
    missing = [
        str(d.relative_to(SRC))
        for d in _source_dirs()
        if any(p.suffix == ".py" for p in d.iterdir() if p.is_file())
        and not (d / "__init__.py").exists()
    ]
    assert missing == [], f"module directories without __init__.py: {missing}"


def test_no_hollow_packages():
    """A package must carry code: a lone zero-byte ``__init__.py`` (plus
    caches) is the kernels-package failure mode in miniature."""
    hollow = []
    for directory in _source_dirs():
        contents = _real_contents(directory)
        if [p.name for p in contents] == ["__init__.py"]:
            if (directory / "__init__.py").stat().st_size == 0:
                hollow.append(str(directory.relative_to(SRC)))
    assert hollow == [], f"hollow packages (only an empty __init__.py): {hollow}"


def _python_files(directory: Path, *, skip_init: bool) -> list[Path]:
    return [
        path
        for path in sorted(directory.rglob("*.py"))
        if not _IGNORED.intersection(path.parts)
        and not (skip_init and path.name == "__init__.py")
    ]


def _public_definitions(src: Path = SRC) -> dict[str, int]:
    """Top-level public def/class name -> number of modules defining it.

    ``__init__`` modules only re-export, so neither their definitions nor
    their names count.
    """
    defined: Counter = Counter()
    for path in _python_files(src, skip_init=True):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] += 1
    return dict(defined)


def _name_token_counts(names, src: Path = SRC, callers=None) -> Counter:
    """Occurrences of each name as a code token (not in strings or comments)."""
    files = _python_files(src, skip_init=True)
    for tree in callers if callers is not None else [ROOT / name for name in _CALLER_TREES]:
        files += _python_files(tree, skip_init=False)
    counts: Counter = Counter()
    for path in files:
        with path.open("rb") as stream:
            for token in tokenize.tokenize(stream.readline):
                if token.type == tokenize.NAME and token.string in names:
                    counts[token.string] += 1
    return counts


def _test_only_names(src: Path = SRC, callers=None, allowlist=TEST_ONLY_ALLOWLIST) -> list[str]:
    defined = _public_definitions(src)
    counts = _name_token_counts(defined, src, callers)
    # A definition names itself once; anything beyond that is a use.
    return sorted(
        name
        for name, n_definitions in defined.items()
        if counts[name] <= n_definitions and name not in allowlist
    )


def test_public_definitions_have_non_test_callers():
    """A public def or class that only tests name is dead code in ``src/``:
    delete it (with its tests), or allowlist it with a reason."""
    test_only = _test_only_names()
    assert test_only == [], f"public definitions no non-test code names: {test_only}"


def test_allowlisted_names_still_exist():
    """An allowlist entry whose definition is gone is stale: drop it."""
    stale = sorted(set(TEST_ONLY_ALLOWLIST) - set(_public_definitions()))
    assert stale == [], f"allowlisted names no longer defined in src/: {stale}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_guard_flags_a_planted_test_only_definition(tmp_path):
    src = tmp_path / "src"
    _write(src / "pkg" / "live.py", "def used():\n    return 1\n\n\ndef planted():\n    return 2\n")
    _write(src / "pkg" / "caller.py", "from pkg.live import used\n\nVALUE = used()\n")
    _write(tmp_path / "tests" / "test_live.py", "from pkg.live import planted\n\nplanted()\n")
    assert _test_only_names(src, callers=[], allowlist={}) == ["planted"]
    assert _test_only_names(src, callers=[], allowlist={"planted": "kept"}) == []


def test_guard_ignores_names_in_strings_and_comments(tmp_path):
    src = tmp_path / "src"
    _write(src / "pkg" / "mod.py", "def lonely():\n    return 0\n")
    _write(src / "pkg" / "other.py", '# lonely()\nDOC = "lonely is mentioned here"\n')
    assert _test_only_names(src, callers=[], allowlist={}) == ["lonely"]
    example = tmp_path / "examples"
    _write(example / "demo.py", "from pkg.mod import lonely\n\nlonely()\n")
    assert _test_only_names(src, callers=[example], allowlist={}) == []


def test_guard_skips_private_and_init_definitions(tmp_path):
    src = tmp_path / "src"
    _write(src / "pkg" / "__init__.py", "from pkg.mod import exported\n\n\ndef in_init():\n    pass\n")
    _write(src / "pkg" / "mod.py", "def exported():\n    pass\n\n\ndef _private():\n    pass\n")
    assert _public_definitions(src) == {"exported": 1}
    # The re-export in __init__ is not a caller.
    assert _test_only_names(src, callers=[], allowlist={}) == ["exported"]


#: A Sphinx cross-reference role whose target is a fully-qualified
#: ``repro.`` name (``~`` only shortens the rendered text).
_ROLE_REFERENCE = re.compile(r":(?:mod|class|func|meth|attr|data|exc):`~?(repro(?:\.\w+)+)`")

#: A backticked ``repro.`` dotted path in the prose docs, optionally
#: written as a call (```repro.recipes.load_bundled_recipe(name)```).
_DOC_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path inside one.

    The longest prefix that imports is the module; ``getattr`` must find
    every remaining part.
    """
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def _references(paths, pattern) -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(ROOT)), match.group(1))
        for path in paths
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
    ]


def _stale(references) -> list[str]:
    return sorted({f"{where}: {name}" for where, name in references if not _resolves(name)})


def test_docstring_cross_references_resolve():
    """Every ``:role:`repro.…``` target in ``src/`` names something real."""
    references = _references(_python_files(SRC, skip_init=False), _ROLE_REFERENCE)
    assert references, "no cross-references found: the pattern is broken"
    stale = _stale(references)
    assert stale == [], f"docstring references to names that do not exist: {stale}"


def test_doc_dotted_paths_resolve():
    """Every backticked ``repro.…`` path in README.md and docs/ names something real."""
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    references = _references(docs, _DOC_REFERENCE)
    assert references, "no dotted paths found: the pattern is broken"
    stale = _stale(references)
    assert stale == [], f"doc references to names that do not exist: {stale}"


def test_reference_guard_flags_a_stale_name():
    text = "See :class:`~repro.solvers.base.RunResult` and :mod:`repro.nowhere`."
    found = [match.group(1) for match in _ROLE_REFERENCE.finditer(text)]
    assert found == ["repro.solvers.base.RunResult", "repro.nowhere"]
    assert _resolves("repro.solvers.base.RunResult.cost")
    assert not _resolves("repro.nowhere")
    assert not _resolves("repro.solvers.base.NoSuchClass")
