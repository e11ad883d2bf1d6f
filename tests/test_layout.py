"""Every public module-level function and class in `src/whsic`, and every
public method, that no command reaches carries a reason to stay: it states
a result of the paper that an open ROADMAP item will give a command, or it
is a float oracle that the benchmark still times. The paper's other results
live in the tests that state them. And no module imports a name it never
reads.

Reachability is read from the source with `ast`: a definition reaches every
name its body mentions that resolves to a module-level definition, in its
own module, through a `from .module import name` or as `module.name`; a
string constant counts when it names a definition of a module used as
`module.name`, which is how `cli.BUILTINS` names the fiducial constructors.
A method is reached when its class is reached and a reached definition
reads an attribute of its name; a dunder method is reached with its class.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "whsic"

# the result of the paper (arXiv 1102.1268, or the work it builds on) that
# each test-only definition states, after the open ROADMAP item that will
# call it from a command
PAPER_RESULTS = {
    "clifford.order3_trace_check": "ROADMAP item 3: "
        "the Zauner-type order-3 symplectics have trace -1",
    "clifford.antiunitary_action": "ROADMAP item 3: "
        "a det -1 symplectic acts anti-unitarily (extended Clifford group)",
    "monomial.monomial_antiunitary": "ROADMAP item 5: "
        "the anti-unitary J is monomial in the |r,s> basis",
    "monomial.invariant_subgroup": "ROADMAP item 8: "
        "an SL(2, N)-invariant subgroup of order N exists iff N is a square",
    "monomial.sl2_orbit": "ROADMAP item 8: "
        "SL(2, N) is transitive on each order class",
}

# float oracles that the benchmark's `certify` workload and layer probes
# still time; the tests call them too
BENCHMARK_ORACLES = {
    "clifford.conjugation_check_batched",
    "monomial.is_phase_permutation",
    "sic.sic_residual",
    "weyl.all_displacements",
    "crt.verify_product_iso",
    "mub.is_unbiased",
}


def _module_graph():
    """(definitions, edges, attributes): the definitions of each module as
    "module.name" keys, and its methods as "module.Class.name", with their
    nodes; the keys each one mentions; the attribute names each one reads.
    A class's own node leaves out its methods' bodies, and it mentions its
    dunder methods, which Python calls without naming them."""
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        defs[f"{mod}.{t.id}"] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{mod}.{node.name}.{m.name}", m)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef))
    edges, attributes = {}, {}
    for mod, tree in trees.items():
        names, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules.add(local)
                    else:
                        names[local] = f"{node.module}.{alias.name}"

        def walk(node):
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        yield from ast.walk(sub)
                for sub in node.decorator_list + node.bases:
                    yield from ast.walk(sub)
            else:
                yield from ast.walk(node)

        def mentions(node):
            out, attrs = set(), set()
            for sub in walk(node):
                if isinstance(sub, ast.Name):
                    out.add(names.get(sub.id, f"{mod}.{sub.id}"))
                elif isinstance(sub, ast.Attribute):
                    attrs.add(sub.attr)
                    if (isinstance(sub.value, ast.Name)
                            and sub.value.id in modules):
                        out.add(f"{sub.value.id}.{sub.attr}")
                elif isinstance(sub, ast.Constant):
                    out.update(f"{m}.{sub.value}" for m in modules)
            return out & defs.keys(), attrs

        edges[mod], attributes[mod] = mentions(tree)
        for key, node in defs.items():
            if key.startswith(mod + "."):
                edges[key], attributes[key] = mentions(node)
                if isinstance(node, ast.ClassDef):
                    edges[key] |= {f"{key}.{m.name}" for m in node.body
                                   if isinstance(m, ast.FunctionDef)
                                   and m.name.startswith("__")}
    return defs, edges, attributes


def _reach(graph, roots):
    """The keys reached from roots. A method is reached when its class is
    reached and a reached definition names it as an attribute."""
    defs, edges, attributes = graph
    seen, todo = set(), list(roots)
    while todo:
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo.extend(edges.get(key, ()))
        named = set().union(*(attributes.get(k, ()) for k in seen))
        todo = [k for k in defs.keys() - seen if k.count(".") == 2
                and k.rsplit(".", 1)[0] in seen
                and k.rsplit(".", 1)[1] in named]
    return seen


def _unreachable_from_cli():
    graph = _module_graph()
    defs = graph[0]
    reached = _reach(graph, ["cli"])
    public = {k for k, node in defs.items()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not k.rsplit(".", 1)[1].startswith("_")}
    return public - reached - {k for k in defs if k.startswith("cli.")}, graph


def _open_roadmap_items():
    """The numbers of the items under ROADMAP.md's "Open items"."""
    text = (ROOT / "ROADMAP.md").read_text()
    section = text.split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    return {int(k) for k in re.findall(r"^(\d+)\. \*\*", section, re.M)}


def _unread_imports(tree):
    """(line, name) of each name that an import binds and its scope never
    reads: the module for a module-level import, else the function whose
    body holds it. A `from __future__` import binds no name."""
    unread = []
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, ast.FunctionDef)]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, ast.FunctionDef):
                continue  # its own scope
            todo.extend(ast.iter_child_nodes(node))
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                names = ((a.asname or a.name).split(".")[0] for a in node.names)
                unread += [(node.lineno, x) for x in names if x not in read]
    return sorted(unread)


def _exported(tree):
    """The names a module's `__all__` lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if getattr(t, "id", None) == "__all__"
            for name in ast.literal_eval(node.value)}


def test_paper_results_name_the_open_item_that_will_call_them():
    """Only the five definitions that ROADMAP items 3, 5 and 8 will call
    stay in `src` for the paper's sake, each citing an open item by number;
    the tests state the paper's other results."""
    assert sorted(PAPER_RESULTS) == [
        "clifford.antiunitary_action", "clifford.order3_trace_check",
        "monomial.invariant_subgroup", "monomial.monomial_antiunitary",
        "monomial.sl2_orbit"]
    open_items = _open_roadmap_items()
    for name, reason in PAPER_RESULTS.items():
        item = re.match(r"ROADMAP item (\d+): \S", reason)
        assert item and int(item[1]) in open_items, (name, reason)


def test_no_module_imports_a_name_it_never_reads():
    """Every name an import in `src/whsic` binds is read in its scope, but
    for the re-exports that `__init__.__all__` lists. Negative controls:
    `weyl` with the `dataclass` import that its H(N) triples needed, and a
    function-local import that the module, but not the function, reads."""
    unread = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = [(k, x) for k, x in _unread_imports(tree)
                 if x not in _exported(tree)]
        if names:
            unread[path.name] = names
    assert unread == {}
    weyl = (SRC / "weyl.py").read_text()
    tree = ast.parse(weyl + "from dataclasses import dataclass\n")
    assert _unread_imports(tree) == [(weyl.count("\n") + 1, "dataclass")]
    tree = ast.parse("import numpy as np\nE = np.e\n\n\n"
                     "def f():\n    import numpy as np\n    return E\n")
    assert _unread_imports(tree) == [(6, "np")]


def test_pinned_tables_do_not_overlap():
    assert not PAPER_RESULTS.keys() & BENCHMARK_ORACLES


def test_every_pinned_name_is_unreachable_from_cli():
    unreachable, _ = _unreachable_from_cli()
    pinned = PAPER_RESULTS.keys() | BENCHMARK_ORACLES
    assert sorted(pinned - unreachable) == []


def test_code_no_command_runs_has_a_reason():
    """Each public definition that `cli` does not reach is pinned, or is
    reached only through a pinned one."""
    unreachable, graph = _unreachable_from_cli()
    covered = _reach(graph, PAPER_RESULTS.keys() | BENCHMARK_ORACLES)
    assert sorted(unreachable - covered) == []


def test_the_graph_reaches_what_the_commands_run():
    """Positive controls: a handler's imports, a module-qualified name, a
    constructor named only by a string in `cli.BUILTINS`, methods read as
    attributes and a dunder method; negative controls: a function and two
    methods that only pinned names reach, among them the dense
    `mub.Basis.vectors`, which `generate mub` no longer builds."""
    reached = _reach(_module_graph(), ["cli"])
    assert {"crt.product_iso_witness", "crt.displacement_witness",
            "crt.symplectic_witness", "monomial.covariance_witness",
            "weyl.displacement", "sic.fiducial_n16", "adapted16.fiducial_vector",
            "sic.search_fiducial", "fileio.load_fiducial",
            "mub.unbiased_witness", "clifford.SymplecticMatrix.reduced",
            "sic._CurvatureRing.push",
            "dims.PhasePermutation.__array__"} <= reached
    assert not {"monomial.sl2_orbit", "clifford.SymplecticMatrix.inv",
                "mub.Basis.vectors"} & reached
