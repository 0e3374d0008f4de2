//! Decomposition trees (Definitions 2.4–2.6).
//!
//! One representation serves HDs, GHDs and FHDs: every node carries a bag
//! `B_u` and a sparse edge-weight function (`λ_u` when all weights are 1,
//! `γ_u` in general). Which *conditions* hold — and therefore which kind of
//! decomposition this is — is checked by the validators in
//! [`crate::validate`].

use arith::Rational;
use hypergraph::{Hypergraph, VertexSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A node of a decomposition: a bag plus an edge-weight function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// The bag `B_u ⊆ V(H)`.
    pub bag: VertexSet,
    /// Sparse weights `γ_u` (edge index, weight), weights in `(0, 1]`.
    pub weights: Vec<(usize, Rational)>,
}

impl Node {
    /// Builds a node with integral weights (`λ_u` as an edge set).
    pub fn integral(bag: VertexSet, edges: impl IntoIterator<Item = usize>) -> Self {
        Node {
            bag,
            weights: edges.into_iter().map(|e| (e, Rational::one())).collect(),
        }
    }

    /// Total weight of the node's cover function.
    pub fn weight(&self) -> Rational {
        self.weights.iter().map(|(_, w)| w.clone()).sum()
    }

    /// `supp(γ_u)`: edges with non-zero weight.
    pub fn support(&self) -> Vec<usize> {
        self.weights
            .iter()
            .filter(|(_, w)| !w.is_zero())
            .map(|(e, _)| *e)
            .collect()
    }

    /// True iff every weight is exactly 1 (an integral `λ_u`).
    pub fn is_integral(&self) -> bool {
        self.weights
            .iter()
            .all(|(_, w)| w == &Rational::one() || w.is_zero())
    }

    /// `B(γ_u)`: vertices receiving total weight >= 1.
    pub fn covered_set(&self, h: &Hypergraph) -> VertexSet {
        let mut out = VertexSet::new();
        for v in 0..h.num_vertices() {
            let total: Rational = self
                .weights
                .iter()
                .filter(|(e, _)| h.edge(*e).contains(v))
                .map(|(_, w)| w.clone())
                .sum();
            if total >= Rational::one() {
                out.insert(v);
            }
        }
        out
    }

    /// `B(γ_u |_R)` for a sub-support `R` (Definition 6.2 machinery).
    pub fn covered_set_restricted(&self, h: &Hypergraph, r: &[usize]) -> VertexSet {
        let mut out = VertexSet::new();
        for v in 0..h.num_vertices() {
            let total: Rational = self
                .weights
                .iter()
                .filter(|(e, _)| r.contains(e) && h.edge(*e).contains(v))
                .map(|(_, w)| w.clone())
                .sum();
            if total >= Rational::one() {
                out.insert(v);
            }
        }
        out
    }
}

impl cover::MemSize for Node {
    fn approx_bytes(&self) -> usize {
        self.bag.approx_bytes() + self.weights.approx_bytes()
    }
}

impl cover::MemSize for Decomposition {
    /// The whole tree — the shared allocation's header and every vector —
    /// however many holders share it, so answers that share one tree each
    /// charge it in full and their total stays an upper bound. The first
    /// call walks the tree and memoizes the sum in it; an edit resets the
    /// memo, so holders sharing one tree walk it once.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let t = &*self.tree;
        let memo = t.bytes.load(Ordering::Relaxed);
        if memo != 0 {
            return memo;
        }
        let children: usize = t
            .children
            .iter()
            .map(|c| size_of::<Vec<usize>>() + c.capacity() * size_of::<usize>())
            .sum();
        let bytes = size_of::<Decomposition>()
            + size_of::<[usize; 2]>() // the `Arc`'s two reference counts
            + size_of::<Tree>()
            + t.nodes.iter().map(Node::approx_bytes).sum::<usize>()
            + t.parent.capacity() * size_of::<Option<usize>>()
            + children;
        t.bytes.store(bytes, Ordering::Relaxed);
        bytes
    }
}

/// The body of a [`Decomposition`], shared by its clones.
struct Tree {
    nodes: Vec<Node>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// The tree's [`MemSize`](cover::MemSize) once a walk has computed it,
    /// 0 until then (a tree is never 0 bytes); reset by every edit.
    bytes: AtomicUsize,
}

impl Clone for Tree {
    /// A copy of the vectors at their lengths, its size not yet known.
    fn clone(&self) -> Self {
        Tree {
            nodes: self.nodes.clone(),
            parent: self.parent.clone(),
            children: self.children.clone(),
            bytes: AtomicUsize::new(0),
        }
    }
}

impl PartialEq for Tree {
    /// The tree's contents; the size memo is not part of them.
    fn eq(&self, other: &Self) -> bool {
        (&self.nodes, &self.parent, &self.children)
            == (&other.nodes, &other.parent, &other.children)
    }
}

impl Eq for Tree {}

/// A rooted decomposition tree. Node 0 is always the root.
///
/// A shared, copy-on-write value: the nodes, parents and children sit
/// behind one [`Arc`], so `clone()` is O(1) (it bumps a reference count)
/// and clones may cross threads. The edits — [`add_child`],
/// [`node_mut`], [`splice_out`] and [`shrink_to_fit`] — copy a shared
/// tree first, so an edit never reaches another holder's tree, and edit in
/// place a tree held once. A width answer and the result cache's stored
/// copy of it are therefore one tree until either is edited.
///
/// [`add_child`]: Decomposition::add_child
/// [`node_mut`]: Decomposition::node_mut
/// [`splice_out`]: Decomposition::splice_out
/// [`shrink_to_fit`]: Decomposition::shrink_to_fit
#[derive(Clone, PartialEq, Eq)]
pub struct Decomposition {
    tree: Arc<Tree>,
}

// Result-cache answers hold witnesses and replay them across threads.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Decomposition>();
};

impl fmt::Debug for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decomposition")
            .field("nodes", &self.tree.nodes)
            .field("parent", &self.tree.parent)
            .field("children", &self.tree.children)
            .finish()
    }
}

impl Decomposition {
    /// Starts a decomposition from its root node.
    pub fn new(root: Node) -> Self {
        Self::with_capacity(root, 1)
    }

    /// Starts a decomposition from its root node, with room for `n` nodes.
    pub(crate) fn with_capacity(root: Node, n: usize) -> Self {
        let mut tree = Tree {
            nodes: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            children: Vec::with_capacity(n),
            bytes: AtomicUsize::new(0),
        };
        tree.nodes.push(root);
        tree.parent.push(None);
        tree.children.push(Vec::new());
        Decomposition {
            tree: Arc::new(tree),
        }
    }

    /// The tree to edit: this holder's own, copied first if shared, its
    /// size memo reset.
    fn tree_mut(&mut self) -> &mut Tree {
        let t = Arc::make_mut(&mut self.tree);
        *t.bytes.get_mut() = 0;
        t
    }

    /// Adds a node under `parent`; returns the new node id.
    pub fn add_child(&mut self, parent: usize, node: Node) -> usize {
        let t = self.tree_mut();
        assert!(parent < t.nodes.len());
        let id = t.nodes.len();
        t.nodes.push(node);
        t.parent.push(Some(parent));
        t.children.push(Vec::new());
        t.children[parent].push(id);
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tree.nodes.len()
    }

    /// True iff the decomposition has no nodes (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.tree.nodes.is_empty()
    }

    /// The root node id (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Immutable node access.
    pub fn node(&self, u: usize) -> &Node {
        &self.tree.nodes[u]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, u: usize) -> &mut Node {
        &mut self.tree_mut().nodes[u]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.tree.nodes
    }

    /// Drops the growth slack of the node, parent and children vectors,
    /// so a witness kept for long (a result-cache answer) holds no spare
    /// node slots.
    pub fn shrink_to_fit(&mut self) {
        let t = self.tree_mut();
        t.nodes.shrink_to_fit();
        t.parent.shrink_to_fit();
        t.children.shrink_to_fit();
    }

    /// Parent of `u` (`None` for the root).
    pub fn parent(&self, u: usize) -> Option<usize> {
        self.tree.parent[u]
    }

    /// Children of `u`.
    pub fn children(&self, u: usize) -> &[usize] {
        &self.tree.children[u]
    }

    /// The width: maximum total node weight (Definition 2.6).
    pub fn width(&self) -> Rational {
        self.tree
            .nodes
            .iter()
            .map(Node::weight)
            .max()
            .unwrap_or_else(Rational::zero)
    }

    /// Node ids of the subtree rooted at `u` (preorder).
    pub fn subtree(&self, u: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![u];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// `V(T_u)`: the union of bags in the subtree rooted at `u`.
    pub fn subtree_vertices(&self, u: usize) -> VertexSet {
        let mut out = VertexSet::new();
        for n in self.subtree(u) {
            out.union_with(&self.node(n).bag);
        }
        out
    }

    /// `nodes(V', D)`: ids of nodes whose bag intersects `vs`.
    pub fn nodes_intersecting(&self, vs: &VertexSet) -> Vec<usize> {
        (0..self.len())
            .filter(|&u| self.node(u).bag.intersects(vs))
            .collect()
    }

    /// The unique tree path from `a` to `b` (inclusive).
    pub fn path_between(&self, a: usize, b: usize) -> Vec<usize> {
        let ancestors = |mut u: usize| -> Vec<usize> {
            let mut out = vec![u];
            while let Some(p) = self.parent(u) {
                out.push(p);
                u = p;
            }
            out
        };
        let pa = ancestors(a);
        let pb = ancestors(b);
        // Find the lowest common ancestor.
        let set_b: std::collections::HashSet<usize> = pb.iter().copied().collect();
        let lca = *pa.iter().find(|u| set_b.contains(u)).expect("same tree");
        let mut path: Vec<usize> = pa.iter().take_while(|&&u| u != lca).copied().collect();
        path.push(lca);
        let tail: Vec<usize> = pb.iter().take_while(|&&u| u != lca).copied().collect();
        path.extend(tail.into_iter().rev());
        path
    }

    /// Removes node `u` (not the root), attaching its children to its parent.
    pub fn splice_out(&mut self, u: usize) {
        let t = self.tree_mut();
        let p = t.parent[u].expect("cannot splice out the root");
        let kids = std::mem::take(&mut t.children[u]);
        for &k in &kids {
            t.parent[k] = Some(p);
        }
        t.children[p].retain(|&c| c != u);
        t.children[p].extend(kids);
        // Mark the node dead by emptying it; ids stay stable.
        t.nodes[u].bag.clear();
        t.nodes[u].weights.clear();
        t.parent[u] = None;
        self.compact(u);
    }

    /// Removes a dead node id by swapping in the last node.
    fn compact(&mut self, dead: usize) {
        let t = self.tree_mut();
        let last = t.nodes.len() - 1;
        if dead != last {
            t.nodes.swap(dead, last);
            t.parent.swap(dead, last);
            t.children.swap(dead, last);
            // Rewire references to `last`.
            let moved_parent = t.parent[dead];
            if let Some(p) = moved_parent {
                for c in t.children[p].iter_mut() {
                    if *c == last {
                        *c = dead;
                    }
                }
            }
            let kids = t.children[dead].clone();
            for k in kids {
                t.parent[k] = Some(dead);
            }
        }
        t.nodes.pop();
        t.parent.pop();
        t.children.pop();
    }

    /// Pretty-prints the tree with bag and cover contents.
    pub fn render(&self, h: &Hypergraph) -> String {
        let mut out = String::new();
        self.render_rec(h, self.root(), 0, &mut out);
        out
    }

    fn render_rec(&self, h: &Hypergraph, u: usize, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let node = self.node(u);
        let bag: Vec<&str> = node.bag.iter().map(|v| h.vertex_name(v)).collect();
        let cover: Vec<String> = node
            .weights
            .iter()
            .map(|(e, w)| {
                if w == &Rational::one() {
                    h.edge_name(*e).to_string()
                } else {
                    format!("{}:{}", h.edge_name(*e), w)
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "{}[{}] bag={{{}}} cover={{{}}}",
            "  ".repeat(depth),
            u,
            bag.join(","),
            cover.join(",")
        );
        for &c in self.children(u) {
            self.render_rec(h, c, depth + 1, out);
        }
    }
}

impl fmt::Display for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Decomposition({} nodes, width {})",
            self.len(),
            self.width()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_tree() -> Decomposition {
        // root(0) -> a(1) -> b(2); root -> c(3)
        let mut d = Decomposition::new(Node::integral(VertexSet::from_iter([0, 1]), [0]));
        let a = d.add_child(0, Node::integral(VertexSet::from_iter([1, 2]), [1]));
        let _b = d.add_child(a, Node::integral(VertexSet::from_iter([2, 3]), [2]));
        let _c = d.add_child(0, Node::integral(VertexSet::from_iter([0, 4]), [3]));
        d
    }

    #[test]
    fn structure_queries() {
        let d = simple_tree();
        assert_eq!(d.len(), 4);
        assert_eq!(d.root(), 0);
        assert_eq!(d.parent(1), Some(0));
        assert_eq!(d.children(0), &[1, 3]);
        assert_eq!(d.subtree(1), vec![1, 2]);
        assert_eq!(d.subtree_vertices(1).to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn path_between_nodes() {
        let d = simple_tree();
        assert_eq!(d.path_between(2, 3), vec![2, 1, 0, 3]);
        assert_eq!(d.path_between(1, 1), vec![1]);
        assert_eq!(d.path_between(0, 2), vec![0, 1, 2]);
    }

    #[test]
    fn width_is_max_node_weight() {
        let mut d = simple_tree();
        assert_eq!(d.width(), Rational::one());
        d.node_mut(2).weights.push((3, Rational::from_frac(1, 2)));
        assert_eq!(d.width(), Rational::from_frac(3, 2));
    }

    #[test]
    fn splice_out_preserves_tree() {
        let mut d = simple_tree();
        d.splice_out(1); // b should hang off the root now
        assert_eq!(d.len(), 3);
        // All remaining nodes reachable from root.
        assert_eq!(d.subtree(0).len(), 3);
        let subtree_bags: Vec<Vec<usize>> = d
            .subtree(0)
            .iter()
            .map(|&u| d.node(u).bag.to_vec())
            .collect();
        assert!(subtree_bags.contains(&vec![2, 3]));
        assert!(subtree_bags.contains(&vec![0, 4]));
    }

    /// A bag and cover for `h4` that the trees above do not use.
    fn fresh_node() -> Node {
        Node::integral(VertexSet::from_iter([3]), [2])
    }

    fn h4() -> Hypergraph {
        Hypergraph::from_edges(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 4]])
    }

    /// Editing a clone with each mutator leaves the original as it was,
    /// and editing the original leaves the clone as it was.
    #[test]
    fn edits_copy_a_shared_tree_first() {
        type Edit = fn(&mut Decomposition);
        let h = h4();
        let edits: [(&str, Edit); 3] = [
            ("add_child", |d| {
                d.add_child(1, fresh_node());
            }),
            ("node_mut", |d| d.node_mut(0).bag.clear()),
            ("splice_out", |d| d.splice_out(1)),
        ];
        for (name, edit) in edits {
            let original = simple_tree();
            let (len, render) = (original.len(), original.render(&h));
            let mut copy = original.clone();
            edit(&mut copy);
            assert_ne!(copy.render(&h), render, "{name} edits the copy");
            assert_eq!(original.len(), len, "{name} on a clone");
            assert_eq!(original.render(&h), render, "{name} on a clone");

            let mut original = simple_tree();
            let copy = original.clone();
            edit(&mut original);
            assert_ne!(original.render(&h), render, "{name} edits the original");
            assert_eq!(copy.len(), len, "{name} on the original");
            assert_eq!(copy.render(&h), render, "{name} on the original");
        }
    }

    /// Shrinking drops spare capacity without changing the tree.
    #[test]
    fn shrink_to_fit_keeps_the_tree() {
        let h = h4();
        let mut d = simple_tree();
        d.add_child(3, fresh_node());
        let before = (d.render(&h), format!("{d:?}"));
        let bytes = cover::MemSize::approx_bytes(&d);
        d.shrink_to_fit();
        assert_eq!((d.render(&h), format!("{d:?}")), before);
        assert!(
            cover::MemSize::approx_bytes(&d) < bytes,
            "the slack is gone"
        );
    }

    /// The size memo never outlives an edit: after each mutator, a tree
    /// measured before the edit charges what the same edit on a tree never
    /// measured charges.
    #[test]
    fn size_memo_follows_every_edit() {
        use cover::MemSize;
        type Edit = fn(&mut Decomposition);
        let edits: [(&str, Edit); 4] = [
            ("add_child", |d| {
                d.add_child(1, fresh_node());
            }),
            ("node_mut", |d| {
                d.node_mut(0).weights.push((2, Rational::one()))
            }),
            ("splice_out", |d| d.splice_out(1)),
            ("shrink_to_fit", Decomposition::shrink_to_fit),
        ];
        // Five nodes in room for eight, so shrinking changes the size too.
        let slack = || {
            let mut d = simple_tree();
            d.add_child(3, fresh_node());
            d
        };
        for (name, edit) in edits {
            let mut measured = slack();
            let before = measured.approx_bytes();
            edit(&mut measured);
            let mut fresh = slack();
            edit(&mut fresh);
            assert_ne!(fresh.approx_bytes(), before, "{name} changes the size");
            assert_eq!(measured.approx_bytes(), fresh.approx_bytes(), "{name}");

            // The clone measures the shared tree; its edit leaves the
            // original's size as it was.
            let original = slack();
            let mut copy = original.clone();
            assert_eq!(copy.approx_bytes(), before, "{name}: one tree");
            edit(&mut copy);
            assert_eq!(original.approx_bytes(), before, "{name} on a clone");
        }
    }

    #[test]
    fn node_cover_sets() {
        let h = Hypergraph::from_edges(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let mut n = Node::integral(VertexSet::from_iter([0, 1]), [0]);
        assert_eq!(n.covered_set(&h).to_vec(), vec![0, 1]);
        assert!(n.is_integral());
        n.weights = vec![
            (0, Rational::from_frac(1, 2)),
            (1, Rational::from_frac(1, 2)),
        ];
        assert!(!n.is_integral());
        // Only v1 gets total weight 1.
        assert_eq!(n.covered_set(&h).to_vec(), vec![1]);
        assert_eq!(n.weight(), Rational::one());
    }
}
