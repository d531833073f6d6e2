"""Meta-tests: documentation artifacts exist, public API is importable
and documented, benchmark files map to DESIGN.md's experiment index."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


class TestDocumentationArtifacts:
    def test_design_md_exists_and_indexes_experiments(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for token in (
            "Table 1", "Table 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
            "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
        ):
            assert token in design, f"DESIGN.md missing {token}"

    def test_design_md_maps_benches(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        bench_dir = REPO_ROOT / "benchmarks"
        for fig in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11"):
            matches = list(bench_dir.glob(f"bench_{fig}_*.py")) or list(
                bench_dir.glob(f"bench_{fig}*.py")
            )
            assert matches, f"no bench file for {fig}"
            assert matches[0].name in design, (
                f"DESIGN.md does not reference {matches[0].name}"
            )

    def test_readme_quickstart_names_real_api(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "load_dataset" in readme
        assert "BSMProblem" in readme
        assert "bsm-saturate" in readme

    def test_examples_exist(self):
        examples = REPO_ROOT / "examples"
        assert (examples / "quickstart.py").exists()
        scripts = list(examples.glob("*.py"))
        assert len(scripts) >= 3


class TestPublicApi:
    def test_all_submodules_import(self):
        failures = []
        for module in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            try:
                importlib.import_module(module.name)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((module.name, exc))
        assert not failures

    def test_all_public_modules_have_docstrings(self):
        for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(module.name)
            assert mod.__doc__, f"{module.name} has no module docstring"

    def test_root_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name, None) is not None, name

    def test_public_callables_documented(self):
        import repro.core as core

        for name in core.__all__:
            obj = getattr(core, name)
            if callable(obj):
                assert obj.__doc__, f"repro.core.{name} lacks a docstring"

    def test_version_string(self):
        assert repro.__version__ == "1.0.0"


class TestSpeedKnobsArePins:
    """The kernel set and the pool flavour are process settings.

    They are selected once (:func:`repro.kernels.set_default_kernel` /
    ``REPRO_KERNEL`` and :func:`repro.utils.parallel.set_default_backend`),
    never threaded through call signatures; ``ServiceEngine`` keeps its
    ``exec_backend`` config keyword, which sets the pin.
    """

    ALLOWED = {("repro/service/engine.py", "ServiceEngine.__init__")}

    @staticmethod
    def _public(name: str) -> bool:
        return not name.startswith("_") or (
            name.startswith("__") and name.endswith("__")
        )

    def _public_functions(self, tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._public(node.name):
                    yield node.name, node
            elif isinstance(node, ast.ClassDef) and self._public(node.name):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and self._public(item.name):
                        yield f"{node.name}.{item.name}", item

    def test_no_public_kernel_or_exec_backend_parameter(self):
        src = REPO_ROOT / "src"
        offenders = []
        for path in sorted((src / "repro").rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for qualname, fn in self._public_functions(tree):
                args = fn.args
                names = {
                    a.arg
                    for a in args.posonlyargs + args.args + args.kwonlyargs
                }
                hit = names & {"kernel", "exec_backend"}
                if hit and (rel, qualname) not in self.ALLOWED:
                    offenders.append(f"{rel}::{qualname} {sorted(hit)}")
        assert not offenders, offenders
