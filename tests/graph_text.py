"""The graph DSL rendered back to text, used only by the test suite."""

from causalboot.graph import CausalGraph


def graph_to_text(g: CausalGraph) -> str:
    """Render ``g`` in the DSL so that parse(render(g)) == g."""
    lines = []
    if g.nodes:
        lines.append("; ".join(g.nodes) + ";")
    for name in sorted(g.latent):
        lines.append(f"latent {name};")
    for tail, head in sorted(g.directed):
        lines.append(f"{tail} -> {head};")
    for a, b in sorted(g.bidirected):
        lines.append(f"{a} <-> {b};")
    return "\n".join(lines) + ("\n" if lines else "")
