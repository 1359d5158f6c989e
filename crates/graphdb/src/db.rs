//! The graph-database store.
//!
//! A [`GraphDb`] keeps its node names in one arena string, finds nodes and
//! facts through open-addressing hash tables of dense ids keyed by a
//! per-database [`RandomState`] (so chosen names cannot flood them), and
//! serves adjacency from two CSR arrays. Bulk loaders ([`crate::text::parse`],
//! [`crate::delta::materialize`], [`GraphDb::without_facts`],
//! [`GraphDb::reversed`]) build the CSR once, at the end of the load; facts
//! added one at a time through the public mutators rebuild it on the next
//! adjacency query instead.

use rpq_automata::alphabet::{Alphabet, Letter};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;
use std::sync::OnceLock;

/// Identifier of a node (domain element) of a graph database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a fact (labeled edge) of a graph database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactId(pub u32);

impl FactId {
    /// The fact identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fact `source --label--> target` of a graph database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    /// The tail (source) of the edge.
    pub source: NodeId,
    /// The edge label.
    pub label: Letter,
    /// The head (target) of the edge.
    pub target: NodeId,
}

/// An open-addressing (linear probing) hash table of dense `u32` ids. The
/// keys live with the caller, which supplies the hash and an equality test;
/// each slot keeps the low 32 bits of its key's hash, so growing never
/// re-hashes a key and most probes never look at one.
#[derive(Debug, Clone, Default)]
struct IdTable {
    /// `(hash, id)` pairs; `id == EMPTY` marks a free slot. The length is
    /// zero or a power of two.
    slots: Vec<(u32, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl IdTable {
    /// The id whose key has `hash` and satisfies `eq`.
    fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let hash = hash as u32;
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && eq(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id whose key has `hash` and satisfies `eq`, or `fresh` inserted
    /// under `hash`. The flag tells whether `fresh` was inserted.
    fn get_or_insert(&mut self, hash: u64, fresh: u32, eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        if let Some(id) = self.get(hash, eq) {
            return (id, false);
        }
        self.insert(hash, fresh);
        (fresh, true)
    }

    /// Inserts `id` under `hash`; the caller knows its key is absent.
    fn insert(&mut self, hash: u64, id: u32) {
        self.reserve(1);
        self.place(hash as u32, id);
        self.len += 1;
    }

    /// Makes room for `additional` more ids without growing again.
    fn reserve(&mut self, additional: usize) {
        // Keep the load at most one half: linear probes stay short.
        let needed = 2 * (self.len + additional);
        if needed > self.slots.len() {
            self.grow_to(needed.next_power_of_two().max(16));
        }
    }

    fn place(&mut self, hash: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id);
    }

    fn grow_to(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); capacity]);
        for (hash, id) in old {
            if id != EMPTY {
                self.place(hash, id);
            }
        }
    }
}

/// Compressed sparse rows: the facts at node `v` are
/// `ids[offsets[v]..offsets[v + 1]]`, in increasing id order.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    ids: Vec<FactId>,
}

impl Csr {
    /// One counting pass over `facts`, grouping them by `end`.
    fn build(num_nodes: usize, facts: &[Fact], end: impl Fn(&Fact) -> NodeId) -> Csr {
        let mut offsets = vec![0u32; num_nodes + 1];
        for fact in facts {
            offsets[end(fact).0 as usize + 1] += 1;
        }
        for v in 1..=num_nodes {
            offsets[v] += offsets[v - 1];
        }
        // Place each fact at its node's cursor; afterwards `offsets[v]` holds
        // the end of row `v`, so shifting right by one restores the starts.
        let mut ids = vec![FactId(0); facts.len()];
        for (i, fact) in facts.iter().enumerate() {
            let cursor = &mut offsets[end(fact).0 as usize];
            ids[*cursor as usize] = FactId(i as u32);
            *cursor += 1;
        }
        offsets.copy_within(0..num_nodes, 1);
        offsets[0] = 0;
        Csr { offsets, ids }
    }

    fn row(&self, node: NodeId) -> &[FactId] {
        let v = node.0 as usize;
        &self.ids[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Outgoing and incoming adjacency of every node.
#[derive(Debug, Clone)]
struct Adjacency {
    out: Csr,
    inc: Csr,
}

/// An edge-labeled graph database with bag-semantics multiplicities.
///
/// Set-semantics databases are simply databases in which every fact has
/// multiplicity 1 (the default of [`GraphDb::add_fact`]).
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    /// Every node name, concatenated in id order.
    names: String,
    /// `name_ends[v]` is the end of node `v`'s name in `names`.
    name_ends: Vec<usize>,
    /// Node ids by name.
    node_index: IdTable,
    facts: Vec<Fact>,
    multiplicities: Vec<u64>,
    /// Facts declared **exogenous**: they can never be part of a contingency
    /// set (equivalently, they carry weight `+∞`). This is the "exogenous
    /// relations" setting discussed in Sections 2 and 8 of the paper.
    exogenous: Vec<bool>,
    /// Fact ids by content.
    fact_index: IdTable,
    /// The key of both hash tables, drawn per database.
    hasher: RandomState,
    /// CSR adjacency over all current nodes and facts; emptied by every
    /// mutation that adds a node or a fact.
    adjacency: OnceLock<Adjacency>,
}

impl GraphDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        GraphDb::default()
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        let hash = self.hasher.hash_one(name);
        let (names, ends) = (&self.names, &self.name_ends);
        let fresh = ends.len() as u32;
        let (id, inserted) = self.node_index.get_or_insert(hash, fresh, |id| {
            names.as_bytes()[name_span(ends, id)] == *name.as_bytes()
        });
        if inserted {
            self.names.push_str(name);
            self.name_ends.push(self.names.len());
            self.adjacency.take();
        }
        NodeId(id)
    }

    /// Returns the node with the given name if it exists.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let hash = self.hasher.hash_one(name);
        self.node_index
            .get(hash, |id| {
                self.names.as_bytes()[name_span(&self.name_ends, id)] == *name.as_bytes()
            })
            .map(NodeId)
    }

    /// Creates a fresh anonymous node.
    pub fn fresh_node(&mut self) -> NodeId {
        let name = format!("_n{}", self.num_nodes());
        self.node(&name)
    }

    /// The display name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[name_span(&self.name_ends, node.0)]
    }

    /// Number of nodes in the domain.
    pub fn num_nodes(&self) -> usize {
        self.name_ends.len()
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Adds a fact with multiplicity 1 (set semantics). If the fact already
    /// exists its multiplicity is left unchanged. Returns the fact identifier.
    pub fn add_fact(&mut self, source: NodeId, label: Letter, target: NodeId) -> FactId {
        self.add_fact_with_multiplicity(source, label, target, 1)
    }

    /// Adds a fact by node names (creating the nodes as needed).
    pub fn add_fact_by_names(&mut self, source: &str, label: char, target: &str) -> FactId {
        let s = self.node(source);
        let t = self.node(target);
        self.add_fact(s, Letter(label), t)
    }

    /// Adds a fact with an explicit multiplicity (bag semantics). If the fact
    /// is already present its multiplicity is **increased** by `multiplicity`.
    ///
    /// # Panics
    ///
    /// If `multiplicity` is zero or the accumulated multiplicity overflows
    /// `u64`.
    pub fn add_fact_with_multiplicity(
        &mut self,
        source: NodeId,
        label: Letter,
        target: NodeId,
        multiplicity: u64,
    ) -> FactId {
        assert!(multiplicity > 0, "bag multiplicities must be positive");
        match self.try_add_fact(Fact { source, label, target }, multiplicity) {
            Some(id) => id,
            None => panic!("bag multiplicity overflows u64"),
        }
    }

    /// [`GraphDb::add_fact_with_multiplicity`] for the loaders: `None` when
    /// the fact is present and its accumulated multiplicity would overflow.
    /// `multiplicity` must be positive.
    pub(crate) fn try_add_fact(&mut self, fact: Fact, multiplicity: u64) -> Option<FactId> {
        let hash = self.hasher.hash_one(fact);
        let facts = &self.facts;
        let fresh = facts.len() as u32;
        let (id, inserted) =
            self.fact_index.get_or_insert(hash, fresh, |id| facts[id as usize] == fact);
        if inserted {
            self.push_fact(fact, multiplicity, false);
            return Some(FactId(id));
        }
        // The fact is already present: bag semantics accumulates the
        // multiplicity, while set semantics (1 on both sides) keeps it at 1.
        let current = &mut self.multiplicities[id as usize];
        if multiplicity > 1 || *current > 1 {
            *current = current.checked_add(multiplicity)?;
        }
        Some(FactId(id))
    }

    /// Appends a fact the caller knows to be absent, skipping the duplicate
    /// check (the loaders that copy or replay distinct facts use this).
    pub(crate) fn add_new_fact(&mut self, fact: Fact, multiplicity: u64, exogenous: bool) {
        self.fact_index.insert(self.hasher.hash_one(fact), self.facts.len() as u32);
        self.push_fact(fact, multiplicity, exogenous);
    }

    fn push_fact(&mut self, fact: Fact, multiplicity: u64, exogenous: bool) {
        self.facts.push(fact);
        self.multiplicities.push(multiplicity);
        self.exogenous.push(exogenous);
        self.adjacency.take();
    }

    /// Sizes the hash tables for `facts` more facts and as many nodes, so
    /// that a load of about that size never rehashes.
    pub(crate) fn reserve(&mut self, facts: usize) {
        self.node_index.reserve(facts);
        self.fact_index.reserve(facts);
    }

    /// Builds the adjacency now, so that queries never pay for it. Every
    /// bulk loader ends with this.
    pub(crate) fn finish_load(&mut self) {
        self.adjacency();
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| Adjacency {
            out: Csr::build(self.num_nodes(), &self.facts, |f| f.source),
            inc: Csr::build(self.num_nodes(), &self.facts, |f| f.target),
        })
    }

    /// A database with the nodes of `self` (same ids and names) and no facts.
    fn with_nodes_of(&self) -> GraphDb {
        GraphDb {
            names: self.names.clone(),
            name_ends: self.name_ends.clone(),
            node_index: self.node_index.clone(),
            hasher: self.hasher.clone(),
            ..GraphDb::default()
        }
    }

    /// Sets the multiplicity of an existing fact.
    pub fn set_multiplicity(&mut self, fact: FactId, multiplicity: u64) {
        assert!(multiplicity > 0, "bag multiplicities must be positive");
        self.multiplicities[fact.index()] = multiplicity;
    }

    /// Declares a fact **exogenous** (or endogenous again with `false`):
    /// exogenous facts can never be removed by a contingency set, i.e. they
    /// behave as facts of weight `+∞` (the setting discussed in Sections 2
    /// and 8 of the paper). When every `L`-walk uses an exogenous fact the
    /// resilience is `+∞`.
    pub fn set_exogenous(&mut self, fact: FactId, exogenous: bool) {
        self.exogenous[fact.index()] = exogenous;
    }

    /// Whether a fact is exogenous (cannot be part of a contingency set).
    pub fn is_exogenous(&self, fact: FactId) -> bool {
        self.exogenous[fact.index()]
    }

    /// Whether any fact of the database is exogenous.
    pub fn has_exogenous_facts(&self) -> bool {
        self.exogenous.iter().any(|&e| e)
    }

    /// Iterator over the exogenous facts.
    pub fn exogenous_facts(&self) -> impl Iterator<Item = FactId> + '_ {
        self.exogenous.iter().enumerate().filter(|(_, &e)| e).map(|(i, _)| FactId(i as u32))
    }

    /// Iterator over the endogenous (removable) facts.
    pub fn endogenous_facts(&self) -> impl Iterator<Item = FactId> + '_ {
        self.exogenous.iter().enumerate().filter(|(_, &e)| !e).map(|(i, _)| FactId(i as u32))
    }

    /// Number of (distinct) facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// The size `|D|` of the database: its number of facts.
    pub fn size(&self) -> usize {
        self.num_facts()
    }

    /// The fact with the given identifier.
    pub fn fact(&self, id: FactId) -> Fact {
        self.facts[id.index()]
    }

    /// The multiplicity of a fact.
    pub fn multiplicity(&self, id: FactId) -> u64 {
        self.multiplicities[id.index()]
    }

    /// Sum of the multiplicities of all facts, saturating at `u64::MAX`.
    pub fn total_multiplicity(&self) -> u64 {
        self.multiplicities.iter().fold(0, |sum, &m| sum.saturating_add(m))
    }

    /// Iterator over all fact identifiers.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.facts.len() as u32).map(FactId)
    }

    /// Iterator over `(FactId, Fact)` pairs.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, Fact)> + '_ {
        self.facts.iter().enumerate().map(|(i, &f)| (FactId(i as u32), f))
    }

    /// Looks up a fact identifier by its content.
    pub fn find_fact(&self, source: NodeId, label: Letter, target: NodeId) -> Option<FactId> {
        let fact = Fact { source, label, target };
        self.fact_index
            .get(self.hasher.hash_one(fact), |id| self.facts[id as usize] == fact)
            .map(FactId)
    }

    /// The facts leaving a node.
    pub fn out_facts(&self, node: NodeId) -> impl Iterator<Item = FactId> + '_ {
        self.adjacency().out.row(node).iter().copied()
    }

    /// The facts entering a node.
    pub fn in_facts(&self, node: NodeId) -> impl Iterator<Item = FactId> + '_ {
        self.adjacency().inc.row(node).iter().copied()
    }

    /// The alphabet of labels occurring on facts.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::from_letters(self.facts.iter().map(|f| f.label))
    }

    /// Returns a copy of the database with the given facts removed (their
    /// multiplicities removed entirely). Node identifiers are preserved.
    pub fn without_facts(&self, removed: &BTreeSet<FactId>) -> GraphDb {
        let mut out = self.with_nodes_of();
        out.fact_index.reserve(self.num_facts());
        for (id, fact) in self.facts() {
            if !removed.contains(&id) {
                out.add_new_fact(fact, self.multiplicity(id), self.is_exogenous(id));
            }
        }
        out.finish_load();
        out
    }

    /// The mirror database `D^R`: every fact is reversed (Proposition 6.3 of
    /// the paper uses this to relate the resilience of a language and of its
    /// mirror). Fact identifiers are preserved.
    pub fn reversed(&self) -> GraphDb {
        let mut out = self.with_nodes_of();
        out.fact_index.reserve(self.num_facts());
        for (id, fact) in self.facts() {
            let mirrored = Fact { source: fact.target, label: fact.label, target: fact.source };
            out.add_new_fact(mirrored, self.multiplicity(id), self.is_exogenous(id));
        }
        out.finish_load();
        out
    }

    /// Human-readable rendering of a fact, e.g. `u -a-> v`.
    pub fn display_fact(&self, id: FactId) -> String {
        let f = self.fact(id);
        format!("{} -{}-> {}", self.node_name(f.source), f.label, self.node_name(f.target))
    }
}

/// Where node `id`'s name lies in the name arena, given the names' ends.
fn name_span(ends: &[usize], id: u32) -> Range<usize> {
    let id = id as usize;
    (if id == 0 { 0 } else { ends[id - 1] })..ends[id]
}

impl fmt::Display for GraphDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GraphDb with {} nodes and {} facts:", self.num_nodes(), self.num_facts())?;
        for (id, _) in self.facts() {
            let m = self.multiplicity(id);
            if m == 1 {
                writeln!(f, "  {}", self.display_fact(id))?;
            } else {
                writeln!(f, "  {} (×{m})", self.display_fact(id))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        assert_ne!(u, v);
        assert_eq!(db.node("u"), u);
        assert_eq!(db.num_nodes(), 2);
        assert_eq!(db.node_name(u), "u");
        assert_eq!(db.find_node("v"), Some(v));
        assert_eq!(db.find_node("w"), None);
        let w = db.fresh_node();
        assert_eq!(db.num_nodes(), 3);
        assert_ne!(w, u);
    }

    #[test]
    fn facts_are_deduplicated_in_set_semantics() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        let f1 = db.add_fact(u, Letter('a'), v);
        let f2 = db.add_fact(u, Letter('a'), v);
        assert_eq!(f1, f2);
        assert_eq!(db.num_facts(), 1);
        assert_eq!(db.multiplicity(f1), 1);
        let f3 = db.add_fact(u, Letter('b'), v);
        assert_ne!(f1, f3);
        assert_eq!(db.num_facts(), 2);
    }

    #[test]
    fn bag_multiplicities_accumulate() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        let f = db.add_fact_with_multiplicity(u, Letter('a'), v, 3);
        assert_eq!(db.multiplicity(f), 3);
        db.add_fact_with_multiplicity(u, Letter('a'), v, 2);
        assert_eq!(db.multiplicity(f), 5);
        db.set_multiplicity(f, 7);
        assert_eq!(db.multiplicity(f), 7);
        assert_eq!(db.total_multiplicity(), 7);
    }

    #[test]
    fn adjacency_and_lookup() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("u", 'a', "v");
        let f2 = db.add_fact_by_names("u", 'b', "w");
        let f3 = db.add_fact_by_names("v", 'a', "w");
        let u = db.find_node("u").unwrap();
        let w = db.find_node("w").unwrap();
        let out_u: Vec<FactId> = db.out_facts(u).collect();
        assert_eq!(out_u, vec![f1, f2]);
        let in_w: Vec<FactId> = db.in_facts(w).collect();
        assert_eq!(in_w, vec![f2, f3]);
        let v = db.find_node("v").unwrap();
        assert_eq!(db.find_fact(u, Letter('a'), v), Some(f1));
        assert_eq!(db.find_fact(u, Letter('a'), w), None);
    }

    #[test]
    fn alphabet_and_display() {
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("v", 'x', "w");
        let alpha = db.alphabet();
        assert_eq!(alpha.len(), 2);
        assert!(alpha.contains(Letter('x')));
        let rendered = db.to_string();
        assert!(rendered.contains("u -a-> v"));
    }

    #[test]
    fn without_facts_removes_them() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("u", 'a', "v");
        let f2 = db.add_fact_by_names("v", 'b', "w");
        let removed: BTreeSet<FactId> = [f1].into_iter().collect();
        let sub = db.without_facts(&removed);
        assert_eq!(sub.num_facts(), 1);
        assert_eq!(sub.num_nodes(), db.num_nodes());
        let (_, remaining) = sub.facts().next().unwrap();
        assert_eq!(remaining.label, Letter('b'));
        // Removing nothing copies everything (including multiplicities).
        db.set_multiplicity(f2, 5);
        let copy = db.without_facts(&BTreeSet::new());
        assert_eq!(copy.num_facts(), 2);
        assert_eq!(copy.total_multiplicity(), 6);
    }

    #[test]
    fn reversed_database() {
        let mut db = GraphDb::new();
        let f = db.add_fact_by_names("u", 'a', "v");
        db.set_multiplicity(f, 4);
        db.add_fact_by_names("v", 'b', "w");
        let rev = db.reversed();
        assert_eq!(rev.num_facts(), 2);
        let u = rev.find_node("u").unwrap();
        let v = rev.find_node("v").unwrap();
        let fr = rev.find_fact(v, Letter('a'), u).unwrap();
        assert_eq!(rev.multiplicity(fr), 4);
        assert!(rev.find_fact(u, Letter('a'), v).is_none());
    }

    #[test]
    fn bag_sums_never_wrap() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        let fact = Fact { source: u, label: Letter('a'), target: v };
        let f = db.try_add_fact(fact, u64::MAX).unwrap();
        assert_eq!(db.try_add_fact(fact, 2), None);
        assert_eq!(db.multiplicity(f), u64::MAX);
        // Two distinct facts of multiplicity u64::MAX saturate the total.
        db.add_fact_with_multiplicity(v, Letter('a'), u, u64::MAX);
        assert_eq!(db.total_multiplicity(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_multiplicity_panics() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        db.add_fact_with_multiplicity(u, Letter('a'), u, u64::MAX);
        db.add_fact_with_multiplicity(u, Letter('a'), u, 1);
    }

    #[test]
    fn adjacency_follows_mutations_after_a_load() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("u", 'a', "v");
        db.finish_load();
        let u = db.find_node("u").unwrap();
        assert_eq!(db.out_facts(u).collect::<Vec<_>>(), vec![f1]);
        let f2 = db.add_fact_by_names("u", 'b', "w");
        let w = db.find_node("w").unwrap();
        assert_eq!(db.out_facts(u).collect::<Vec<_>>(), vec![f1, f2]);
        assert_eq!(db.in_facts(w).collect::<Vec<_>>(), vec![f2]);
        let x = db.node("x");
        assert_eq!(db.out_facts(x).count(), 0);
    }

    #[test]
    fn many_nodes_and_facts_stay_findable() {
        let mut db = GraphDb::new();
        for i in 0..1000 {
            db.add_fact_by_names(&format!("n{i}"), 'a', &format!("n{}", (i * 7) % 1000));
        }
        assert_eq!(db.num_nodes(), 1000);
        assert_eq!(db.num_facts(), 1000);
        for v in db.nodes() {
            assert_eq!(db.find_node(db.node_name(v)), Some(v));
        }
        for (id, f) in db.facts() {
            assert_eq!(db.find_fact(f.source, f.label, f.target), Some(id));
            assert!(db.out_facts(f.source).any(|g| g == id));
            assert!(db.in_facts(f.target).any(|g| g == id));
        }
        assert_eq!(db.find_node("n1000"), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplicity_is_rejected() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        db.add_fact_with_multiplicity(u, Letter('a'), v, 0);
    }
}
