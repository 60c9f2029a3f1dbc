//! Graphviz DOT export for Fig.-3-style group renderings.

use crate::{NodeId, PropertyGraph};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Renders the subgraph induced by `nodes` (or the whole graph if `None`)
/// as a DOT document. Symmetric edge pairs are merged into one undirected
/// DOT edge; `node_label` / `edge_label` control rendering.
///
/// Only the included nodes' rows are walked, in ascending node order, so
/// rendering one group costs its own edges, not the whole graph's; the
/// output is the whole-graph edge walk filtered to the group.
pub fn to_dot<N, L: Copy + Eq>(
    graph: &PropertyGraph<N, L>,
    nodes: Option<&[NodeId]>,
    mut node_label: impl FnMut(NodeId, &N) -> String,
    mut edge_label: impl FnMut(&L) -> String,
) -> String {
    let included: Option<HashSet<NodeId>> = nodes.map(|ns| ns.iter().copied().collect());
    let keep = |id: NodeId| included.as_ref().is_none_or(|set| set.contains(&id));
    let order: Vec<NodeId> = match &included {
        Some(set) => {
            let mut order: Vec<NodeId> = set
                .iter()
                .copied()
                .filter(|id| id.index() < graph.node_count())
                .collect();
            order.sort_unstable();
            order
        }
        None => graph.node_ids().collect(),
    };

    let mut out = String::from("graph malgraph {\n  node [shape=box, fontsize=10];\n");
    for &id in &order {
        let _ = writeln!(
            out,
            "  {id} [label=\"{}\"];",
            escape(&node_label(id, graph.node(id)))
        );
    }
    // Merge (a→b, b→a) pairs: emit each undirected edge once (a < b), and
    // any asymmetric edge as a directed-style annotation.
    let mut emitted: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut buf = Vec::new();
    for &from in &order {
        graph.walk_out(from, &mut |_| true, &mut buf, |to, label| {
            if !keep(to) {
                return;
            }
            let key = if from <= to { (from, to) } else { (to, from) };
            if emitted.insert(key) {
                let _ = writeln!(
                    out,
                    "  {} -- {} [label=\"{}\"];",
                    key.0,
                    key.1,
                    escape(&edge_label(&label))
                );
            }
        });
    }
    out.push_str("}\n");
    out
}

/// Escapes a label for use inside a double-quoted DOT string. Besides
/// backslash and quote, every C0 control character must be neutralised:
/// a raw newline in a label terminates the quoted string early and the
/// rest of the name is reparsed as DOT syntax. `\n`/`\r`/`\t` keep their
/// readable escapes (DOT understands `\n` as a line break in labels);
/// the remaining controls have no DOT escape and are rendered as
/// visible `\xNN` hex placeholders.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nodes_and_merged_edges() {
        let mut g: PropertyGraph<&str, &str> = PropertyGraph::new();
        let a = g.add_node("colorslib");
        let b = g.add_node("httpslib");
        g.add_undirected_edge(a, b, "coexist");
        let dot = to_dot(&g, None, |_, n| n.to_string(), |l| l.to_string());
        assert!(dot.contains("n0 [label=\"colorslib\"]"));
        assert!(dot.contains("n1 [label=\"httpslib\"]"));
        // Two directed edges merge into a single undirected DOT edge.
        assert_eq!(dot.matches(" -- ").count(), 1);
        assert!(dot.contains("label=\"coexist\""));
    }

    #[test]
    fn induced_subgraph_filters_nodes_and_edges() {
        let mut g: PropertyGraph<u8, u8> = PropertyGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_undirected_edge(a, b, 1);
        g.add_undirected_edge(b, c, 1);
        let dot = to_dot(&g, Some(&[a, b]), |id, _| id.to_string(), |_| String::new());
        assert!(dot.contains("n0"));
        assert!(dot.contains("n1"));
        assert!(!dot.contains("n2"));
        assert_eq!(dot.matches(" -- ").count(), 1);
    }

    #[test]
    fn labels_are_escaped() {
        let mut g: PropertyGraph<&str, &str> = PropertyGraph::new();
        g.add_node("with \"quotes\"");
        g.add_node("line\nbreak\ttab\rcr");
        g.add_node("bell\u{0007}and\u{001b}escape");
        let dot = to_dot(&g, None, |_, n| n.to_string(), |l| l.to_string());
        assert!(dot.contains("\\\"quotes\\\""));
        // Control characters must never reach the output raw: a literal
        // newline inside label="…" terminates the quoted string early.
        assert!(dot.contains("line\\nbreak\\ttab\\rcr"));
        assert!(dot.contains("bell\\\\x07and\\\\x1bescape"));
        for line in dot.lines() {
            assert!(
                line.chars().all(|c| c == ' ' || !c.is_control()),
                "raw control character leaked into DOT line {line:?}"
            );
        }
    }

    #[test]
    fn empty_graph_is_valid_dot() {
        let g: PropertyGraph<(), ()> = PropertyGraph::new();
        let dot = to_dot(&g, None, |_, _| String::new(), |_| String::new());
        assert!(dot.starts_with("graph malgraph {"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
