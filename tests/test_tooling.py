import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # the tracer patches each target with getattr: a renamed or deleted
    # function would break `perfbench/run.py --trace 1`
    tracer = _tracer()
    assert tracer.TARGETS
    missing = [
        (module, attr) for module, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"degenlab.{module}"),
                                attr, None))
    ]
    assert missing == []


def test_python_dash_m_runs_the_cli():
    # an uninstalled checkout reaches the CLI as `python -m degenlab`
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "degenlab", "catalog", "list"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("zero ")


def test_package_imports_only_the_standard_library():
    # pins `dependencies = []` in pyproject.toml: sympy and the rest are
    # test-side only
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "degenlab"]
    assert outside == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # start-up cost: `dataclasses` pulls in inspect, ast, dis and tokenize,
    # about 11 ms before any claim is checked; the records are NamedTuples.
    # Modules the bare interpreter already holds (site's) do not count
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); "
            f"sys.path.insert(0, {str(src)!r}); "
            "import degenlab, degenlab.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "degenlab.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_importing_the_package_loads_only_the_modules_below_the_run():
    # `import degenlab` binds what perfbench/child.py reads, all of it from
    # algebra, contraction and catalog; the degeneration records, the
    # ledger run and the CLI load when they are imported themselves
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); "
            f"sys.path.insert(0, {str(src)!r}); "
            "import degenlab; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = {name for name in done.stdout.split()
              if name.split(".")[0] == "degenlab"}
    assert loaded == {"degenlab", "degenlab.exactnum", "degenlab.linalg",
                      "degenlab.algebra", "degenlab.contraction",
                      "degenlab.catalog"}


def test_no_package_module_imports_dataclasses():
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def _package_imports(path: Path) -> set:
    """Names of the degenlab modules one package file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["degenlab" * (node.level == 1),
                                          node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        names |= {name.split(".")[1] for name in dotted
                  if name.startswith("degenlab.")}
    return names


def test_every_package_module_is_reached_from_the_package_or_the_cli():
    # a module that only tests or tools import belongs beside them, not in
    # the package (the ledger generator lives in tools/)
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    imports = {path.stem: _package_imports(path) for path in package.glob("*.py")}
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += [name for name in imports[module] if name in imports]
    assert sorted(set(imports) - reached - {"__main__"}) == []


def _public_definitions(tree):
    """(qualified name, name) of the public top-level functions, classes
    and assignments of a module and the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _child_calls() -> set:
    """The attribute names that perfbench/child.py calls, such as
    `degenlab.dim_square` in `degenlab.dim_square(t)`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    return {node.func.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


def test_linalg_and_algebra_define_no_api_that_only_tests_reach():
    # every public name of every package module is read by the package
    # itself, is a tracer target or is called by the benchmark's child
    # process; an export from __init__ is not a use, and neither is the
    # assignment that defines a name.  A top-level name is read bare or as
    # `module.name` (`catalog.instantiate`): an attribute of the same name
    # on some other object (`records.iw_sequence`) reads a method, not the
    # function
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py") if path.stem != "__init__"}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in trees:
                    names.add(node.attr)
    names |= _child_calls()
    traced = {(module, attr) for module, attr, _ in _tracer().TARGETS}
    unused = [f"{module}.{qualified}"
              for module in ("exactnum", "linalg", "algebra", "contraction",
                             "catalog", "degeneration", "verification_db",
                             "cli")
              for qualified, name in _public_definitions(trees[module])
              if name not in (names if qualified == name else attributes)
              and (module, qualified) not in traced]
    assert unused == []


def test_the_package_exports_exactly_what_the_benchmark_child_reads():
    # one import path per name: every library name is imported from the
    # module that defines it, and the package namespace keeps only the
    # names that perfbench/child.py reads as `degenlab.<name>` (besides the
    # submodules themselves)
    import degenlab

    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    reads = {node.attr
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "degenlab"
             and not node.attr.startswith("_")}
    exported = {name for name, value in vars(degenlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for name in reads
                        if not inspect.ismodule(getattr(degenlab, name))}


def _package_names(banned, allowed_modules):
    """(module, name) for each name in banned that a package module outside
    allowed_modules names, imports or reads as an attribute."""
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    named = []
    for path in sorted(package.glob("*.py")):
        if path.stem in allowed_modules:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            named += [(path.stem, name) for name in names if name in banned]
    return named


def test_only_linalg_and_algebra_name_the_fraction_subspace():
    # spans and null spaces are integer echelon rows: no package module
    # defines or names a Fraction RREF or a Subspace (the tests' oracles
    # keep their own), and the run paths above the algebra layer read the
    # ideals and the annihilator off the tensor's own invariants
    assert _package_names({"Subspace", "_rref"}, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in ("Subspace", "_rref")]
    assert defined == []
    assert _package_names(
        {"power_ideal", "subspace_product", "annihilator"},
        ("linalg", "algebra", "__init__")) == []


def test_only_algebra_names_the_power_chain_internals():
    # the power chain is read through the StructureTensor that holds it;
    # no module above algebra builds its rows, and only the two chains
    # (algebra's powers, contraction's rank sequences) and linalg's own
    # power_rank_sequence walk an image chain
    assert _package_names({"_int_identity", "_int_dense"}, ("algebra",)) == []
    assert _package_names({"int_image_chain"},
                          ("linalg", "algebra", "contraction")) == []


def test_the_chains_and_the_digit_rule_have_one_kernel_each():
    # the two former chain walks and the three former digit bounds are gone
    # from the package: no module defines or names them
    banned = {"_int_powers", "int_power_rank_sequence", "_row_sum_bound",
              "_engel_packing_bits", "_malcev_packing_bits"}
    assert _package_names(banned, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in banned]
    assert defined == []


def test_the_closed_set_tier_and_the_iw_label_hold_plain_values():
    # a set is its triples, an orbit point is its table rows, the probe is
    # one function and the IW label is one block-count rule: the former
    # spec classes, orbit point builder, pair-map verdict and conjugate
    # reading are gone from the package (the tests' oracles keep the last);
    # a rank sequence and an IW label are int tuples, with no class of
    # their own, and contraction, whose witness is ints, makes no Fraction
    banned = {"_Triples", "ClosedSetSpec", "_orbit_point", "_pair_map_verdict",
              "partition_from_ranks", "conjugate", "RankSequence", "Partition"}
    assert _package_names(banned, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in banned]
    assert defined == []
    tree = ast.parse((package / "contraction.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and "fractions" in [getattr(node, "module", None),
                                    *(alias.name for alias in node.names)]]


def test_a_basis_change_owns_its_inverse():
    # only algebra.int_change_basis and linalg.invert call the one inverse;
    # change_basis, the certificate check and the orbit points go through
    # int_change_basis, and no other module names int_scaled_inverse
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    callers = {(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call)
                       and isinstance(call.func, ast.Name)
                       and call.func.id == "int_scaled_inverse"
                       for call in ast.walk(node))}
    assert callers == {("algebra", "int_change_basis"), ("linalg", "invert")}
    assert _package_names({"int_scaled_inverse"}, ("linalg", "algebra")) == []


def _function(module, qualified):
    """The FunctionDef of a package function, `Class.method` or `name`."""
    path = Path(__file__).resolve().parents[1] / "src" / "degenlab" / f"{module}.py"
    node = ast.parse(path.read_text(encoding="utf-8"))
    for name in qualified.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                    and child.name == name)
    return node


def test_every_image_chain_is_read_off_int_image_chain():
    # the tensor's powers, the rank sequences of L_x and of a matrix call
    # linalg.int_image_chain and run no loop of their own; the identity
    # checks take their digit size from algebra._digit_bits
    for module, qualified, callee in (
            ("algebra", "StructureTensor.__getattr__", "int_image_chain"),
            ("contraction", "_int_rank_sequence", "int_image_chain"),
            ("linalg", "power_rank_sequence", "int_image_chain"),
            ("algebra", "engel_degree", "_digit_bits"),
            ("algebra", "_malcev_holds", "_digit_bits"),
            ("algebra", "jacobi_holds", "_digit_bits")):
        nodes = list(ast.walk(_function(module, qualified)))
        assert callee in {node.func.id for node in nodes
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)}, qualified
        if callee == "int_image_chain":
            assert not [node for node in nodes
                        if isinstance(node, (ast.For, ast.While))], qualified


def test_a_tensor_has_one_constructor():
    # StructureTensor(dim, mult, table) is the one way to build a tensor:
    # no package module defines or names the former `__new__` bypass, the
    # key check that only the Fraction reader shared with `from_pairs`, or
    # the annihilator's reduced conditions, and none calls
    # `StructureTensor.__new__`
    banned = {"_from_table", "_check_key", "_int_centralizer_conditions"}
    assert _package_names(banned, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined, bypasses = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in banned]
        bypasses += [(path.stem, node.lineno) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "__new__"
                     and ast.unparse(node.value) == "StructureTensor"]
    assert defined == [] and bypasses == []


def test_a_tensor_has_one_form_and_products_is_only_output():
    # no package module defines, names or reads `constant` or
    # `_rational_products`; `products` is no slot but a view made at each
    # read, and only algebra's own output (`to_json_obj`, `repr`) reads it
    from degenlab.algebra import StructureTensor

    banned = {"constant", "_rational_products"}
    assert _package_names(banned, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in banned]
    assert defined == []
    assert "products" not in StructureTensor.__slots__
    assert isinstance(StructureTensor.products, property)
    assert _package_names({"products"}, ("algebra",)) == []


def test_the_integer_table_is_the_one_product_format():
    # basis changes and orbit points write the tensor's own rows, and a
    # witness's source side is tested as its samples are: no package
    # module defines or names the former membership test, the Fraction
    # read of a basis at t = 0, the rational-pair constructor or the lazy
    # power walk, and degeneration scales no rational rows
    banned = {"closed_set_member", "limit_at_zero", "_from_rational_pairs", "_walk"}
    assert _package_names(banned, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in banned]
    assert defined == []
    others = {path.stem for path in package.glob("*.py")} - {"degeneration"}
    assert _package_names({"int_scaled"}, others) == []


def test_the_structure_tensor_is_the_one_algebra_object():
    # no second record of a table's invariants beside the tensor, and no
    # function that takes an algebra branches on what kind of object it is
    assert _package_names({"Invariants", "_int_table_of"}, ()) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    branching = []
    for module in ("algebra", "contraction", "catalog", "degeneration"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            algebras = {arg.arg for arg in func.args.args if arg.annotation
                        and "StructureTensor" in ast.unparse(arg.annotation)}
            branching += [
                (module, func.name) for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "type") and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in algebras]
    assert branching == []


def _function_names(module: str, functions) -> set:
    """The names that the named functions of a package module read or call,
    bare (ast.Name) or as attributes (`ref.resolve`)."""
    path = Path(__file__).resolve().parents[1] / "src" / "degenlab" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {node.name: {name.id if isinstance(name, ast.Name) else name.attr
                         for name in ast.walk(node)
                         if isinstance(name, (ast.Name, ast.Attribute))}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(functions) <= set(found)
    return set().union(*(found[name] for name in functions))


def test_the_witness_check_and_the_per_claim_functions_read_the_store():
    # tables are resolved and scanned through degeneration.Records alone:
    # one tensor and one scan per label per run, whichever claim reads it
    # first; none of these functions builds or scans an algebra of its own
    banned = {"instantiate", "resolve", "int_table", "StructureTensor",
              "iw_max", "iw_scan"}
    assert _function_names("degeneration",
                           ["verify_nondegeneration"]) & banned == set()
    assert _function_names("verification_db", [
        "judge_certificate", "_certificate_entry", "_witness_entry",
        "_probe_entry", "_chain_entry", "separator_check",
        "run_ledger"]) & banned == set()
    # so do the invariant table's readers, and the functions it names
    tree, table = _invariant_table()
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(table)
             if isinstance(node, (ast.Name, ast.Attribute))}
    functions = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)} & named
    assert functions == {"_classifier_label"}
    readers = named | _function_names("degeneration", functions)
    assert readers & banned == set()
    assert {"tensor", "iw_sequence"} <= readers


def _invariant_table():
    """The tree of degeneration.py and its assignment of `INVARIANTS`."""
    path = Path(__file__).resolve().parents[1] / "src" / "degenlab" / "degeneration.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (table,) = [node for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["INVARIANTS"]]
    return tree, table


def test_each_closed_invariant_is_named_only_in_its_table():
    # each closed invariant is one row of degeneration.INVARIANTS, as each
    # catalog family is one entry of _FAMILIES: no string naming a row, or
    # a witness kind that a row judges (all but IWDominance, which reads an
    # element payload in its own branch), appears elsewhere in the modules
    # that read the table.  "paper" is the one separator that is no
    # invariant; cli's `info` keys are output, not a declaration
    from degenlab.degeneration import INVARIANTS

    kinds = {row.kind for row in INVARIANTS.values() if row.proved}
    assert kinds == {"DimSquare", "AnnDim", "LieClosure"}
    words = set(INVARIANTS) | kinds
    table = ast.dump(_invariant_table()[1])
    found = []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    for module in ("degeneration", "verification_db"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            if ast.dump(top) != table:
                found += [(module, node.value) for node in ast.walk(top)
                          if isinstance(node, ast.Constant) and node.value in words]
    assert found == []


def test_the_benchmark_copies_of_the_kinds_and_separators_follow_the_table():
    # perfbench/run.py keeps its own copy of the proof-tier witness kinds,
    # for which its correctness gate expects PROVED, and the tracer names
    # the separators whose seconds it reports; both must stay the table's
    from degenlab.degeneration import INVARIANT_KINDS
    from degenlab.verification_db import SEPARATORS

    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    (kinds,) = [node.value for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["INVARIANT_KINDS"]]
    assert set(ast.literal_eval(kinds)) == set(INVARIANT_KINDS)
    assert set(_tracer().SEPARATOR_KINDS) <= set(SEPARATORS)


def test_the_ci_smoke_step_runs_every_benchmark_workload():
    # the tier-1 workflow runs each workload of perfbench/run.py for one
    # second, untraced and traced (the tracer patches the program and
    # computes its metrics only in a traced run), and fails unless each
    # run's last line reports "correct": true
    root = Path(__file__).resolve().parents[1]
    (workloads,) = [node.value for node in ast.parse(
        (root / "perfbench" / "run.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["WORKLOADS"]]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    loop = f"for workload in {' '.join(ast.literal_eval(workloads))}; do"
    assert loop in workflow and "for trace in 0 1; do" in workflow
    assert '--seconds 1 --trace "$trace"' in workflow
    assert '.get("correct") is not True' in workflow


_LOC_FIXTURE = '''"""A module docstring,
over two lines."""

# a comment
def f(x):
    """A function docstring."""
    s = """a string
that is no docstring"""
    return (x +  # a trailing comment
            1)


class C:
    """A class docstring."""
'''


def test_the_line_counter_counts_code_lines_by_its_rules(
        tmp_path, capsys, monkeypatch):
    # blank lines, comment lines and the docstrings of the module, a class
    # and a function are lines but no code lines; a string that is no
    # docstring and a statement over two lines are code lines, each line
    import loc

    assert loc.count(_LOC_FIXTURE) == (6, 14)
    assert loc.count("") == (0, 0)
    (tmp_path / "a.py").write_text(_LOC_FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    monkeypatch.setattr(loc, "PACKAGE", tmp_path)
    assert loc.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "  code  lines  module",
        "     6     14  a.py",
        "     1      2  b.py",
        "     7     16  total",
    ]


def test_the_output_digest_of_the_sources_is_pinned():
    # tools/outputs.py hashes every verify-paper report and .dot (four
    # seeds, with and without --ledger, and two --dims selections), both
    # checks of each of the 189 shipped claims, of 10 failing n3@3
    # certificates, monomial, sheared and not peeling to lower triangular,
    # and of the identity certificate of a table that is not Engel, with
    # no separator and with iw_partition (1015 runs), checks at 1 and 200
    # trials of
    # the 13 sampled witnesses and of one whose target is its source, with
    # --json check on that one, both forms of each desk query at every tested dimension of the manifest
    # families and the --trials 0 refusals of verify-paper, check and
    # iwmax: a refactor keeps this line, and an intended output change
    # updates it
    import outputs

    src = Path(__file__).resolve().parents[1] / "src"
    here = os.getcwd()
    assert outputs.digest(src) == (
        1015, "5ecea11018813173b7dda7d7632ac6286ef8b53e9cbc0bedaa9e15c6c561e2f0")
    assert os.getcwd() == here


def test_the_ci_reports_the_code_lines_after_the_tests():
    # every tier-1 log carries the line counts that the roadmap quotes
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    tests = workflow.index("python -m pytest")
    assert workflow.index("run: python tools/loc.py") > tests


def test_the_ci_installs_the_declared_test_dependencies():
    # the tier-1 workflow installs exactly the `test` extra of
    # pyproject.toml, so the tools CI runs with and those the project
    # declares cannot drift apart
    import tomllib

    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    declared = project["project"]["optional-dependencies"]["test"]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    prefix = "run: python -m pip install "
    (line,) = [line.strip() for line in workflow.splitlines()
               if line.strip().startswith(prefix)]
    assert line[len(prefix):].split() == declared


def test_the_ci_checks_the_outputs_on_the_declared_python_floor():
    # the tier-1 workflow installs the floor that pyproject.toml declares
    # beside its default Python and compares the outputs line of each
    import tomllib

    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    floor = project["project"]["requires-python"].removeprefix(">=")
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    versions = workflow.split("python-version: |\n", 1)[1].split("\n")[:3]
    assert [v.strip() for v in versions] == [floor, "3.13", "3.11"]
    assert f"for version in {floor} 3.13; do" in workflow
    assert 'got=$("python$version" tools/outputs.py src)' in workflow
    assert 'test "$got" = "$want"' in workflow


def test_the_ci_job_has_a_time_limit():
    # a hung subprocess or hypothesis run ends the tier-1 job within its
    # limit instead of holding a runner for the platform's default 6 h
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    (line,) = [line.strip() for line in workflow.splitlines()
               if line.strip().startswith("timeout-minutes:")]
    assert 0 < int(line.split(":")[1]) <= 30


def test_check_loads_and_judges_a_claim_as_the_ledger_run_does():
    # `degenlab check` reads its claim with the ledger loader and judges it
    # with the run's own function: the CLI names no reader or checker of
    # its own
    def cli_names(names):
        return {name for module, name in _package_names(names, ())
                if module == "cli"}

    assert cli_names({"verify_degeneration", "certificate_from_json",
                      "witness_from_json", "check_references",
                      "check_witness_payload"}) == set()
    assert cli_names({"ledger_from_obj", "judge_certificate"}) == {
        "ledger_from_obj", "judge_certificate"}


def test_a_witness_payload_is_read_where_the_witness_is_built():
    # the payload keys are read (rec[key], rec.get(key)) in one place:
    # NonDegenerationWitness, which keeps what it parsed
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    keys = {"triples", "source_basis", "element"}
    readers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript):
                    key = node.slice
                elif (isinstance(node, ast.Call) and node.args
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("get", "pop", "setdefault")):
                    key = node.args[0]
                else:
                    continue
                if isinstance(key, ast.Constant) and key.value in keys:
                    readers.add((path.stem, getattr(top, "name", None)))
    assert readers == {("degeneration", "NonDegenerationWitness")}


def test_a_full_run_parses_each_basis_row_once(monkeypatch):
    # a witness's source-basis rows are parsed when the witness is built;
    # a certificate's rows are read through the run's store, which parses
    # each distinct (text, dim) once, and neither is parsed again
    from degenlab import degeneration, exactnum
    from degenlab.verification_db import (load_ledger, run_ledger,
                                          shipped_ledger_path)

    calls, reads = [], []

    def counting(text, dim):
        calls.append((text, dim))
        return exactnum.parse_basis_row(text, dim)

    def reading(self, text, dim, read=degeneration.Records.basis_row):
        reads.append((text, dim))
        return read(self, text, dim)

    for module in sys.modules.values():
        if (getattr(module, "__name__", "").startswith("degenlab.")
                and module is not exactnum
                and hasattr(module, "parse_basis_row")):
            monkeypatch.setattr(module, "parse_basis_row", counting)
    monkeypatch.setattr(degeneration.Records, "basis_row", reading)
    ledger = load_ledger(shipped_ledger_path())
    witness_rows = len(calls)
    run_ledger(ledger, seed=20240917, trials=1)
    assert witness_rows == sum(len(w.source_rows or ()) for w in ledger.witnesses)
    assert witness_rows == 27
    assert len(reads) == sum(
        len(c.basis_rows) for c in ledger.certificates) == 1051
    parsed = calls[witness_rows:]
    assert sorted(parsed) == sorted(set(reads)) and len(parsed) == 269
    assert degeneration.parse_basis_row is counting


def _strings(node):
    """The string constants an expression is or lists."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [s for elt in node.elts for s in _strings(elt)]
    return []


def test_no_catalog_function_branches_on_a_family_name():
    # each family is declared once, in the table `catalog._FAMILIES`; a
    # function that compares a value with a family's name, key or a prefix
    # of one (==, in, startswith) would be a second declaration
    from degenlab import catalog

    words = set(catalog._FAMILIES)

    def names_a_family(text):
        try:
            catalog.parse_name(text)
            return True
        except catalog.UnknownFamily:
            return bool(text) and any(word.startswith(text) for word in words)

    tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        if (not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                or top.name == "classify_T22"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("startswith", "endswith")):
                operands = node.args
            else:
                continue
            found += [(top.name, text) for operand in operands
                      for text in _strings(operand) if names_a_family(text)]
    assert found == []


def test_a_catalog_family_is_named_once_by_its_key():
    # a family's name is its `_FAMILIES` key: no second spelling field, no
    # table mapping one name back to the other, a name that is the key and
    # m, and a decorated T-family that states no partition of its own
    from degenlab import catalog

    assert not hasattr(catalog, "_SPELLINGS")
    assert "spelling" not in catalog._Family._fields
    assert catalog.CatalogName._fields == ("spelling", "m")
    tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["_FAMILIES"]]
    decorated = {key.value: value.args[0].value
                 for key, value in zip(table.keys, table.values)
                 if isinstance(value, ast.Call) and ast.unparse(value.func) == "_decorated"}
    assert len(decorated) == 11
    for key, base in decorated.items():
        assert catalog.expected_iw_max(key) == catalog.expected_iw_max(base), key


def _blocked_bases():
    """(shipped certificates, bases that do not peel): each shipped
    certificate from its source to itself, with two of its one-term rows,
    in columns a and b, replaced by e_a + e_b and e_a - e_b (a seeded
    choice).  Every other row is zero in both columns or peels without
    them, so the basis is invertible and only the packed check reads it."""
    import random
    import re

    from degenlab.verification_db import load_ledger, shipped_ledger_path

    certs, rng, blocked = load_ledger(shipped_ledger_path()).certificates, random.Random(58), []
    for cert in certs:
        one = [(r, cols[0]) for r, row in enumerate(cert.basis_rows)
               for cols in [re.findall(r"e(\d+)", row)] if len(cols) == 1]
        (r, a), (s, b) = rng.sample(one, 2)
        rows = list(cert.basis_rows)
        rows[r], rows[s] = f"e{a}+e{b}", f"e{a}-e{b}"
        blocked.append(cert._replace(target=cert.source, basis_rows=tuple(rows)))
    assert len(certs) == len(blocked) == 133
    return certs, blocked


def test_the_certificate_check_hands_only_ints_to_the_integer_kernels(monkeypatch):
    # the packed check packs Z[t] into ints at t = 2^B; a ZPoly reaching
    # the kernels would mean it silently went back to polynomial arithmetic
    # (the packed basis G, its inverse's d and R, the constants N).  Each
    # basis that does not peel calls each kernel once; a shipped basis,
    # which peels, calls neither
    from degenlab import algebra, degeneration

    calls = []

    def spy(kernel):
        def wrapped(*args):
            out = kernel(*args)
            calls.append((kernel.__name__, args, out))
            return out
        return wrapped

    monkeypatch.setattr(algebra, "int_scaled_inverse",
                        spy(algebra.int_scaled_inverse))
    monkeypatch.setattr(degeneration, "int_change_basis",
                        spy(degeneration.int_change_basis))
    certs, blocked = _blocked_bases()
    records = degeneration.Records()
    for cert in certs:
        assert degeneration.verify_degeneration(cert, records).ok
    assert calls == []
    for cert in blocked:
        before = len(calls)
        degeneration.verify_degeneration(cert, records)
        names = [name for name, _, _ in calls[before:]]
        assert names == ["int_scaled_inverse", "int_change_basis"], cert.cert_id
    assert len(calls) == 2 * len(blocked)
    values = []
    for name, args, (d, out) in calls:
        basis = args[0] if name == "int_scaled_inverse" else args[2]
        values += [x for row in basis for x in row] + [d]
        values += ([x for row in out for x in row] if name == "int_scaled_inverse"
                   else [x for _, _, entries in out for _, x in entries])
    assert values and all(type(x) is int for x in values)


def test_the_certificate_check_unpacks_only_the_denominator(monkeypatch):
    # limits are read off the packed coordinates: one balanced-digit
    # unpacking per packed check, of d, and none per coordinate; none for
    # a shipped basis, which the sparse check reads
    from degenlab import degeneration
    from degenlab.exactnum import ZPoly

    unpack, calls = ZPoly.from_balanced_digits, []

    def counted(v, bits):
        calls.append(v)
        return unpack(v, bits)

    monkeypatch.setattr(ZPoly, "from_balanced_digits", staticmethod(counted))
    certs, blocked = _blocked_bases()
    records = degeneration.Records()
    for cert in certs:
        assert degeneration.verify_degeneration(cert, records).ok
    assert calls == []
    for cert in blocked:
        before = len(calls)
        degeneration.verify_degeneration(cert, records)
        assert len(calls) - before == 1, cert.cert_id


def test_proved_and_probe_verdicts_draw_no_random_numbers(monkeypatch):
    # tier honesty: a closed-set probe PASS and a PROVED DimSquare, AnnDim
    # or LieClosure witness must not rest on sampling.  IWDominance is the
    # one PROVED kind that still does: it reads the sampled iw_max.
    import types

    from degenlab import contraction, degeneration
    from degenlab.verification_db import load_ledger, shipped_ledger_path

    def no_sampling(*args):
        raise AssertionError("a random number was drawn")

    stub = types.SimpleNamespace(Random=no_sampling)
    monkeypatch.setattr(degeneration, "random", stub)
    monkeypatch.setattr(contraction, "random", stub)
    witnesses = load_ledger(shipped_ledger_path()).witnesses
    specs = {(tuple(map(tuple, w.payload["triples"])), w.source.dim)
             for w in witnesses if w.kind == "ClosedSet"}
    assert len(specs) == 9
    for triples, dim in specs:
        verdict = degeneration.lower_triangular_invariance_probe(triples, dim)
        assert verdict.status == "pass", triples
    exact = [w for w in witnesses
             if w.kind in ("DimSquare", "AnnDim", "LieClosure")]
    assert len(exact) == 40
    for w in exact:
        assert degeneration.verify_nondegeneration(
            w, degeneration.Records()).status == "proved", (
            w.witness_id)


def test_iw_max_scales_no_candidate_and_rank_sequence_scales_its_element(
        monkeypatch):
    # the candidate pool is integer, so iw_max never calls int_scaled; the
    # public rank_sequence still checks and scales the rational element
    from fractions import Fraction

    import pytest

    from degenlab import contraction
    from degenlab.algebra import DimensionMismatch, left_mult_matrix
    from degenlab.verification_db import load_ledger, shipped_ledger_path
    from oracles import power_rank_sequence_oracle

    def refuse(rows):
        raise AssertionError("int_scaled called")

    ledger = load_ledger(shipped_ledger_path())
    tables = {ref.label: ref.resolve()
              for claim in ledger.certificates + ledger.witnesses
              for ref in (claim.source, claim.target)}
    with monkeypatch.context() as patched:
        patched.setattr(contraction, "int_scaled", refuse)
        for label, a in tables.items():
            partition, witness = contraction.iw_max(a, seed=20240917)
            assert type(partition) is type(witness) is tuple, label
            assert all(type(x) is int for x in witness), label

    iw = [w for w in ledger.witnesses if w.kind == "IWDominance"]
    assert len(iw) == 3
    for w in iw:
        tgt, n = w.target.resolve(), w.target.dim
        element = tuple(map(Fraction, w.payload["element"]))
        with pytest.raises(DimensionMismatch):
            contraction.rank_sequence(tgt, element[:-1])
        # a nonzero multiple of the element has its rank sequence
        scaled = tuple(Fraction(2, 3) * x for x in element)
        assert (contraction.rank_sequence(tgt, scaled)
                == contraction.rank_sequence(tgt, element))
        # and a fractional element as full powers of its Fraction L_x
        mixed = tuple(x + Fraction(1, k + 2) for k, x in enumerate(element))
        want = power_rank_sequence_oracle(left_mult_matrix(tgt, mixed), n)
        assert contraction.rank_sequence(tgt, mixed) == want


def test_the_skew_net_has_one_pfaffian_reading_in_the_catalog():
    # the classifier and the pfaffian_conic separator read one span of the
    # Pfaffian forms: the catalog takes no polynomial gcd, no other module
    # names the skew net or its span, and the separators rank nothing
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    assert "exactnum" not in _package_imports(package / "catalog.py")
    assert _package_names({"_skew_net", "_pfaffian_span"}, ("catalog",)) == []
    assert "linalg" not in _package_imports(package / "verification_db.py")


def test_integer_binary_forms_have_one_reading_in_the_catalog():
    # the classifier's pencil and the flag search's line read where their
    # binary forms vanish on P^1 with the catalog's `_form_roots` and
    # `_meet`: no other module defines them or takes a square root
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    defined = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("_form_roots", "_meet")]
    assert defined == [("catalog", "_form_roots"), ("catalog", "_meet")]
    assert {module for module, _ in _package_names({"isqrt"}, ())} == {"catalog"}


def test_ledger_text_has_one_grammar():
    # basis rows and rational functions are read by one tokenizer and one
    # parser in exactnum: no module splits rows into terms on its own
    assert _package_names({"_tokenize", "_Parser"}, ("exactnum",)) == []
    package = Path(__file__).resolve().parents[1] / "src" / "degenlab"
    tree = ast.parse((package / "degeneration.py").read_text(encoding="utf-8"))
    assert "re" not in {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.Import) for alias in node.names}
    defined = [path.stem for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name == "parse_basis_row"]
    assert defined == ["exactnum"]


def test_spans_have_one_elimination_loop():
    # int_echelon, int_suffix_spans and the rank read the kept rows of
    # linalg._span_rows: none of them runs a loop of its own
    path = Path(__file__).resolve().parents[1] / "src" / "degenlab" / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("int_echelon", "int_suffix_spans", "_int_rank"):
        nodes = list(ast.walk(functions[name]))
        assert not [node for node in nodes
                    if isinstance(node, (ast.For, ast.While))], name
        assert "_span_rows" in {node.func.id for node in nodes
                                if isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Name)}, name


def test_the_classifier_reads_only_the_integer_table():
    # the skew net is read off `a.table` and the pencil is integer: the
    # catalog calls no `.constant(` and names no Fraction
    path = Path(__file__).resolve().parents[1] / "src" / "degenlab" / "catalog.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert "constant" not in calls
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not {name for name in named if "Fraction" in name or name == "fractions"}
