//! Fact deltas: the append-only change log behind snapshot databases.
//!
//! `rpq-store` models a hosted database as a log of [`FactChange`] entries; a
//! *snapshot* is simply a log offset, so taking one is O(1) and immutable by
//! construction. This module owns the change vocabulary, the text format for
//! patches, and the replay that [materializes](materialize) a log prefix into
//! a concrete [`GraphDb`].
//!
//! A patch is line-based, mirroring [`crate::text`]:
//!
//! ```text
//! # comment
//! + u a v        # put fact u -a-> v with multiplicity 1
//! + u x v 3      # put with multiplicity 3
//! + u b v !      # put an exogenous fact
//! - u a v        # delete the fact u -a-> v (no-op if absent)
//! ```
//!
//! Patches are read by the one-pass line scanner of [`crate::text`], so
//! comments, whitespace and error messages follow the database format.
//!
//! **Put overwrites.** Re-putting an existing `(source, label, target)` fact
//! replaces its multiplicity and exogenous flag — it does not accumulate the
//! multiplicities the way [`GraphDb::add_fact_with_multiplicity`] does. This
//! makes replay order-insensitive per key (last write wins) and gives patches
//! upsert semantics.

use crate::db::{Fact, GraphDb};
use crate::text::{self, ParseError};
use rpq_automata::alphabet::Letter;
use std::collections::hash_map::{Entry, HashMap};

/// One entry of a database's append-only fact log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactChange {
    /// Insert or overwrite the fact `source --label--> target`.
    Put {
        /// Source node name.
        source: String,
        /// Edge label.
        label: Letter,
        /// Target node name.
        target: String,
        /// Multiplicity (bag semantics weight), must be positive.
        multiplicity: u64,
        /// Whether the fact is exogenous (weight `+∞`, can never be removed).
        exogenous: bool,
    },
    /// Remove the fact `source --label--> target` entirely (no-op if absent).
    Delete {
        /// Source node name.
        source: String,
        /// Edge label.
        label: Letter,
        /// Target node name.
        target: String,
    },
}

impl FactChange {
    /// The `(source, label, target)` key the change addresses.
    pub fn key(&self) -> (&str, Letter, &str) {
        match self {
            FactChange::Put { source, label, target, .. }
            | FactChange::Delete { source, label, target } => {
                (source.as_str(), *label, target.as_str())
            }
        }
    }

    /// An estimate of the heap bytes the entry retains (node names plus the
    /// fixed fields), used by the store's log-size accounting.
    pub fn log_bytes(&self) -> usize {
        let (source, _, target) = self.key();
        source.len() + target.len() + std::mem::size_of::<FactChange>()
    }
}

/// Parses a patch in the line-based text format (see the [module docs](self)).
pub fn parse_patch(input: &str) -> Result<Vec<FactChange>, ParseError> {
    let mut changes = Vec::new();
    for line in text::lines(input) {
        let fields = line.fields(1);
        match line.first() {
            "+" => {
                let (fields, exogenous) = match fields {
                    Some((fields, exogenous)) if fields.len() == 3 || fields.len() == 4 => {
                        (fields, exogenous)
                    }
                    _ => return Err(line.shape_error("+ source label target [multiplicity] [!]")),
                };
                let multiplicity = line.multiplicity(fields.get(3))?;
                changes.push(FactChange::Put {
                    source: fields[0].to_string(),
                    label: line.label(fields[1])?,
                    target: fields[2].to_string(),
                    multiplicity,
                    exogenous,
                });
            }
            "-" => {
                let fields = match fields {
                    Some((fields, false)) if fields.len() == 3 => fields,
                    _ => return Err(line.shape_error("- source label target")),
                };
                changes.push(FactChange::Delete {
                    source: fields[0].to_string(),
                    label: line.label(fields[1])?,
                    target: fields[2].to_string(),
                });
            }
            other => {
                return Err(
                    line.error(format!("expected `+` or `-` as the first field, got {other:?}"))
                );
            }
        }
    }
    Ok(changes)
}

/// Converts a concrete database into the equivalent log of `Put` entries
/// (used by `db_put`, which seeds a fresh log from a full database text).
pub fn changes_from_db(db: &GraphDb) -> Vec<FactChange> {
    db.facts()
        .map(|(id, fact)| FactChange::Put {
            source: db.node_name(fact.source).to_string(),
            label: fact.label,
            target: db.node_name(fact.target).to_string(),
            multiplicity: db.multiplicity(id),
            exogenous: db.is_exogenous(id),
        })
        .collect()
}

/// Replays a change log into a concrete [`GraphDb`].
///
/// Surviving facts are inserted in the order their key was **first put**, so
/// two logs with the same net effect produce databases with identical node
/// and fact numbering as long as their first-put orders agree — in particular
/// `materialize(&log[..n])` followed by the remaining changes always agrees
/// with `materialize(&log[..m])` for `n <= m` on the shared facts.
pub fn materialize(changes: &[FactChange]) -> GraphDb {
    // One slot per key in first-put order, holding its last write (`None`
    // once deleted).
    type Key<'a> = (&'a str, Letter, &'a str);
    let mut slot_of: HashMap<Key<'_>, usize> = HashMap::new();
    let mut slots: Vec<(Key<'_>, Option<(u64, bool)>)> = Vec::new();
    for change in changes {
        match change {
            FactChange::Put { source, label, target, multiplicity, exogenous } => {
                let key = (source.as_str(), *label, target.as_str());
                let state = Some((*multiplicity, *exogenous));
                match slot_of.entry(key) {
                    Entry::Occupied(slot) => slots[*slot.get()].1 = state,
                    Entry::Vacant(slot) => {
                        slot.insert(slots.len());
                        slots.push((key, state));
                    }
                }
            }
            FactChange::Delete { source, label, target } => {
                if let Some(&slot) = slot_of.get(&(source.as_str(), *label, target.as_str())) {
                    slots[slot].1 = None;
                }
            }
        }
    }
    let mut db = GraphDb::new();
    db.reserve(slots.len());
    for ((source, label, target), state) in slots {
        if let Some((multiplicity, exogenous)) = state {
            let source = db.node(source);
            let target = db.node(target);
            db.add_new_fact(Fact { source, label, target }, multiplicity, exogenous);
        }
    }
    db.finish_load();
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text;

    #[test]
    fn patches_parse_and_replay() {
        let changes =
            parse_patch("# edits\n+ s a u\n+ u x v 3\n+ v b t 2 !\n- u x v\n+ u x v 5\n").unwrap();
        assert_eq!(changes.len(), 5);
        let db = materialize(&changes);
        assert_eq!(db.num_facts(), 3);
        let u = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        let f = db.find_fact(u, Letter('x'), v).unwrap();
        assert_eq!(db.multiplicity(f), 5);
        let t = db.find_node("t").unwrap();
        let b = db.find_fact(v, Letter('b'), t).unwrap();
        assert!(db.is_exogenous(b));
        assert_eq!(db.multiplicity(b), 2);
    }

    #[test]
    fn put_overwrites_instead_of_accumulating() {
        let changes = parse_patch("+ u x v 3\n+ u x v 4\n").unwrap();
        let db = materialize(&changes);
        let u = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        assert_eq!(db.multiplicity(db.find_fact(u, Letter('x'), v).unwrap()), 4);
        // Exogenous can be cleared by a later put too.
        let db = materialize(&parse_patch("+ u x v !\n+ u x v\n").unwrap());
        let u = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        assert!(!db.is_exogenous(db.find_fact(u, Letter('x'), v).unwrap()));
    }

    #[test]
    fn deletes_are_idempotent_and_reinsertions_keep_first_put_order() {
        let changes = parse_patch("+ a x b\n+ b x c\n- a x b\n- a x b\n+ a x b 7\n").unwrap();
        let db = materialize(&changes);
        assert_eq!(db.num_facts(), 2);
        // `a x b` keeps its original position 0 despite the delete/reinsert.
        let (first_id, first) = db.facts().next().unwrap();
        assert_eq!(db.node_name(first.source), "a");
        assert_eq!(db.multiplicity(first_id), 7);
    }

    #[test]
    fn prefix_materializations_agree_with_full_replay() {
        let changes =
            parse_patch("+ s a u\n+ u x v\n- s a u\n+ v b t\n+ s a u 2\n- u x v\n+ u x w\n")
                .unwrap();
        for n in 0..=changes.len() {
            let prefix = materialize(&changes[..n]);
            // Replaying the suffix on top of the prefix's log equals the
            // direct materialization (same net facts; the order can differ
            // when a key deleted before the split loses its first-put slot).
            let mut log = changes_from_db(&prefix);
            log.extend_from_slice(&changes[n..]);
            let sorted = |db: &crate::GraphDb| {
                let mut lines: Vec<String> =
                    text::serialize(db).lines().map(str::to_string).collect();
                lines.sort();
                lines
            };
            assert_eq!(sorted(&materialize(&log)), sorted(&materialize(&changes)), "split at {n}");
        }
    }

    #[test]
    fn malformed_patches_are_rejected_with_line_numbers() {
        for (input, fragment) in [
            ("* u a v", "expected `+` or `-`"),
            ("+ u ab v", "single character"),
            ("+ u a", "expected `+ source label target"),
            ("+ u a v 0", "positive"),
            ("+ u a v x", "invalid multiplicity"),
            ("- u a v !", "expected `- source label target"),
            ("- u a", "expected `- source label target"),
        ] {
            let err = parse_patch(input).unwrap_err();
            assert_eq!(err.line, 1, "{input}");
            assert!(err.message.contains(fragment), "{input}: {}", err.message);
        }
        assert_eq!(parse_patch("# only comments\n\n").unwrap(), Vec::new());
    }
}
