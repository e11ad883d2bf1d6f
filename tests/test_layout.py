"""Every public module-level function and class in `src/whsic` that no
command reaches carries a reason to stay: it states a result of the paper,
or it is a float oracle that the benchmark still times.

Reachability is read from the source with `ast`: a definition reaches every
name its body mentions that resolves to a module-level definition, in its
own module, through a `from .module import name` or as `module.name`; a
string constant counts when it names a definition of a module used as
`module.name`, which is how `cli.BUILTINS` names the fiducial constructors.
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
    "crt.symplectic_witness":
        "the Clifford group of N is the product of those of the n_j",
    "mub.mols_check": "unbiased Latin bases come from orthogonal squares",
    "mub.entanglement_check":
        "each Latin basis vector is maximally entangled across n (x) n",
    "sic.autocorrelation_check":
        "a fiducial's |a|^2 autocorrelations are 2/(N+1) and 1/(N+1)",
    "sic.to_standard": "a SIC in any basis is a SIC in the standard basis",
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
}


def _module_graph():
    """(definitions, edges): the module-level definitions of each module as
    "module.name" keys with their nodes, and the keys each one mentions."""
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
    edges = {}
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

        def mentions(node):
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(names.get(sub.id, f"{mod}.{sub.id}"))
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    out.add(f"{sub.value.id}.{sub.attr}")
                elif isinstance(sub, ast.Constant):
                    out.update(f"{m}.{sub.value}" for m in modules)
            return out & defs.keys()

        edges[mod] = mentions(tree)
        for key, node in defs.items():
            if key.startswith(mod + "."):
                edges[key] = mentions(node)
    return defs, edges


def _reach(edges, roots):
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
    return seen


def _unreachable_from_cli():
    defs, edges = _module_graph()
    reached = _reach(edges, edges["cli"])
    public = {k for k, node in defs.items()
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not k.split(".")[1].startswith("_")}
    return public - reached - {k for k in defs if k.startswith("cli.")}, edges


def test_pinned_tables_do_not_overlap():
    assert not PAPER_RESULTS.keys() & BENCHMARK_ORACLES


def test_every_pinned_name_is_unreachable_from_cli():
    unreachable, _ = _unreachable_from_cli()
    pinned = PAPER_RESULTS.keys() | BENCHMARK_ORACLES
    assert sorted(pinned - unreachable) == []


def test_code_no_command_runs_has_a_reason():
    """Each public definition that `cli` does not reach is pinned, or is
    reached only through a pinned one."""
    unreachable, edges = _unreachable_from_cli()
    covered = _reach(edges, PAPER_RESULTS.keys() | BENCHMARK_ORACLES)
    assert sorted(unreachable - covered) == []


def test_the_graph_reaches_what_the_commands_run():
    """Positive controls: a handler's imports, a module-qualified name and
    a constructor named only by a string in `cli.BUILTINS`."""
    defs, edges = _module_graph()
    reached = _reach(edges, edges["cli"])
    assert {"crt.product_iso_witness", "crt.displacement_witness",
            "monomial.covariance_witness", "weyl.displacement",
            "sic.fiducial_n16", "adapted16.fiducial_vector",
            "sic.search_fiducial", "fileio.load_fiducial"} <= reached
    assert "monomial.sl2_orbit" not in reached
