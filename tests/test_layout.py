"""Every public module-level function and class in `src/whsic`, and every
public method, that no command reaches carries a reason to stay: it states
a result of the paper, or it is a float oracle that the benchmark still
times.

Reachability is read from the source with `ast`: a definition reaches every
name its body mentions that resolves to a module-level definition, in its
own module, through a `from .module import name` or as `module.name`; a
string constant counts when it names a definition of a module used as
`module.name`, which is how `cli.BUILTINS` names the fiducial constructors.
A method is reached when its class is reached and a reached definition
reads an attribute of its name; a dunder method is reached with its class.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "whsic"

# the result of the paper (arXiv 1102.1268, or the work it builds on) that
# each test-only definition states
PAPER_RESULTS = {
    "weyl.GroupElement": "H(N) is the group of triples tau^k D_ij",
    "weyl.identity_element": "H(N) has the identity D_00",
    "weyl.canonicalize":
        "D_{i+N,j} = tau^{Nj} D_ij and D_{i,j+N} = tau^{Ni} D_ij",
    "weyl.compose": "D_ij D_lm = tau^{lj - im} D_{i+l, j+m}",
    "weyl.inverse": "D_ij^{-1} = D_{-i,-j}",
    "weyl.element_order": "the order of tau^k D_ij in H(N)",
    "clifford.is_symplectic": "a Clifford unitary's G has det 1 mod nbar",
    "clifford.order3_trace_check":
        "the Zauner-type order-3 symplectics have trace -1",
    "clifford.lift_sl2": "SL(2, N) lifts onto SL(2, 2N) for even N",
    "clifford.antiunitary_action":
        "a det -1 symplectic acts anti-unitarily (extended Clifford group)",
    "monomial.invariant_subgroup":
        "an SL(2, N)-invariant subgroup of order N exists iff N is a square",
    "monomial.sl2_orbit": "SL(2, N) is transitive on each order class",
    "monomial.stabilized_abelian_check":
        "U_G maps <X^n, Z^n, tau> into itself for square N",
    "monomial.monomial_antiunitary":
        "the anti-unitary J is monomial in the |r,s> basis",
    "monomial.monomial_zauner": "the Zauner unitary is monomial for square N",
    "crt.eta_prime": "H(N) is the product of the H(n_j) under the CRT map",
    "mub.entanglement_check":
        "each Latin basis vector is maximally entangled across n (x) n",
    "sic.autocorrelation_check":
        "a fiducial's |a|^2 autocorrelations are 2/(N+1) and 1/(N+1)",
    "sic.to_standard": "a SIC in any basis is a SIC in the standard basis",
    "sic.rephased4_generators":
        "rephased, N = 4 monomial X and Z are tau times signed permutations",
    "adapted16.omega32_identity":
        "the N = 16 radicals give a primitive 32nd root of unity",
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
