"""Documentation quality gates.

Three checks back the ``docs/`` tree:

* **docstring coverage** — every public class/function of the
  ``repro.campaign``, ``repro.service`` and ``repro.telemetry`` packages
  (and the public methods/properties they define) carries a docstring.
  These packages are the public scaling + control-plane + observability
  API; an undocumented symbol there is a regression.
* **intra-repo links** — every relative markdown link in ``README.md``
  and ``docs/*.md`` resolves to an existing file, and its ``#anchor`` (an
  in-file ``#…`` link too) to a heading of the target, by GitHub's slug
  rule, so the docs tree cannot silently rot as files move or sections
  are renamed.
* **cited sections exist** — every ``<doc>.md``, "<Section>" citation in
  the docs, ``src/`` and ``tests/`` names a heading of that document, and
  ``docs/performance.md`` is a reference by layer: no heading of it names
  a PR or says "nothing moved".
* **named code exists** — every backticked dotted ``repro.*`` name in
  those files resolves to a module or an attribute, so a deleted module,
  class or constant cannot live on in the docs.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

#: The packages whose public API must be fully docstring-covered.
DOCUMENTED_PACKAGES = ("repro.campaign", "repro.service", "repro.telemetry")

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``[text](target)`` markdown links; targets with spaces/titles excluded
#: by the character class (none are used in this repo).
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: a dotted name in the package between backticks, as the docs write
#: ``repro.campaign.workers``
_CODE_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")

#: a markdown heading line, outside fenced code
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

#: ``performance.md``, "Training hot path" and its backticked forms, on
#: text whose wrapped lines are joined
_CITATION = re.compile(r"([\w./-]+\.md)`*\s*,\s*\"([^\"]+)\"")

#: a heading of the performance reference that is a journal entry
_JOURNAL_HEADING = re.compile(r"\bPR\s*\d+|nothing moved", re.IGNORECASE)


def _modules_of(package_name):
    """Every module of a package, the package itself included."""
    package = importlib.import_module(package_name)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{package_name}.{info.name}"))
    return modules


def _public_symbols(package_name):
    """(qualified name, object) for every public class/function."""
    seen = {}
    for module in _modules_of(package_name):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not getattr(obj, "__module__", "").startswith(package_name):
                continue   # re-exported stdlib/other-package helpers
            seen[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return sorted(seen.items())


def _public_members(cls):
    """(qualified name, docstring) of the public members a class defines."""
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        qualified = f"{cls.__module__}.{cls.__qualname__}.{name}"
        if isinstance(attr, property):
            yield qualified, attr.__doc__
        elif isinstance(attr, (classmethod, staticmethod)):
            yield qualified, attr.__func__.__doc__
        elif inspect.isfunction(attr):
            yield qualified, attr.__doc__


class TestDocstringCoverage:
    def test_documented_packages_have_symbols(self):
        """Guard the guard: an import/path mistake must not pass vacuously."""
        campaign = [name for name, _ in _public_symbols("repro.campaign")]
        assert len(campaign) >= 20
        assert "repro.campaign.spec.CampaignSpec" in campaign
        assert "repro.campaign.workers.WorkerPoolExecutor" in campaign
        assert "repro.campaign.cache.ResultCache" in campaign
        service = [name for name, _ in _public_symbols("repro.service")]
        assert len(service) >= 10
        assert "repro.service.bus.RunEventBus" in service
        assert "repro.service.jobs.CampaignJobManager" in service
        assert "repro.service.client.ServiceClient" in service

    @pytest.mark.parametrize("package", DOCUMENTED_PACKAGES)
    def test_every_public_symbol_has_a_docstring(self, package):
        missing = []
        for name, obj in _public_symbols(package):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
            if inspect.isclass(obj):
                for member_name, doc in _public_members(obj):
                    if not (doc or "").strip():
                        missing.append(member_name)
        assert not missing, (
            f"public {package} symbols without docstrings:\n  "
            + "\n  ".join(sorted(set(missing))))

    @pytest.mark.parametrize("package", DOCUMENTED_PACKAGES)
    def test_every_module_has_a_docstring(self, package):
        missing = [module.__name__ for module in _modules_of(package)
                   if not (module.__doc__ or "").strip()]
        assert not missing, f"undocumented {package} modules: {missing}"


def _markdown_files():
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return files


def _headings(md_file):
    """The heading texts of a markdown file, fenced code skipped."""
    headings, fenced = [], False
    for line in md_file.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith(("```", "~~~")):
            fenced = not fenced
        elif not fenced and (match := _HEADING.match(line)):
            headings.append(match.group(1))
    return headings


def _slug(heading):
    """GitHub's anchor for a heading: lower case, every character but
    letters, digits, spaces, ``-`` and ``_`` dropped, spaces to ``-``."""
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


@pytest.mark.parametrize("md_file", _markdown_files(),
                         ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_intra_repo_markdown_links_resolve(md_file):
    assert md_file.exists(), f"{md_file} disappeared"
    broken = []
    for target in _MD_LINK.findall(md_file.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        relative, _, anchor = target.partition("#")
        linked = md_file.parent / relative if relative else md_file
        if not linked.exists():
            broken.append(target)
        elif anchor and linked.suffix == ".md" and anchor not in {
                _slug(heading) for heading in _headings(linked)}:
            broken.append(target)
    assert not broken, (f"broken intra-repo links in "
                        f"{md_file.relative_to(REPO_ROOT)}: {broken}")


def _citations():
    """(citing file, cited document, cited title) for every ``<doc>.md``,
    "<Section>" citation in the docs, ``src/`` and ``tests/``."""
    files = _markdown_files()
    for tree in ("src", "tests"):
        files += sorted((REPO_ROOT / tree).rglob("*.py"))
    found = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        # a citation wrapped over lines, in prose, a docstring or a comment
        joined = re.sub(r"\s*\n\s*(?:#:?\s+)?", " ", text)
        for document, title in _CITATION.findall(joined):
            found.append((str(path.relative_to(REPO_ROOT)), document, title))
    return found


def test_cited_sections_exist():
    citations = _citations()
    assert len(citations) >= 5          # the pattern still finds them
    missing = []
    for citing, document, title in citations:
        candidates = [REPO_ROOT / document,
                      REPO_ROOT / "docs" / Path(document).name]
        cited = next((path for path in candidates if path.exists()), None)
        if cited is None or not any(
                heading.lower().startswith(title.lower())
                for heading in _headings(cited)):
            missing.append(f'{citing}: {document}, "{title}"')
    assert not missing, f"citations of sections that do not exist: {missing}"


def test_the_performance_reference_has_no_journal_headings():
    journal = [heading for heading in
               _headings(REPO_ROOT / "docs" / "performance.md")
               if _JOURNAL_HEADING.search(heading)]
    assert not journal, f"headings titled by a PR or a non-event: {journal}"


def _resolves(name):
    """Whether ``name`` is a module or an attribute reached from one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for part in parts[split:]:
            if not hasattr(found, part):
                return False
            found = getattr(found, part)
        return True
    return False


def test_named_code_resolves():
    names = {(str(md_file.relative_to(REPO_ROOT)), name)
             for md_file in _markdown_files()
             for name in _CODE_NAME.findall(
                 md_file.read_text(encoding="utf-8"))}
    assert len(names) >= 40             # the pattern still finds the names
    stale = sorted(entry for entry in names if not _resolves(entry[1]))
    assert not stale, f"names in the docs that resolve to nothing: {stale}"


def test_docs_tree_is_present():
    """The documented entry points of the docs tree must exist."""
    for page in ("architecture.md", "campaigns.md", "extending-executors.md",
                 "observability.md", "performance.md", "service.md"):
        assert (REPO_ROOT / "docs" / page).exists(), f"docs/{page} is missing"
