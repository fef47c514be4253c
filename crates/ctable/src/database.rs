//! Databases: named collections of c-tables sharing one c-variable
//! registry.

use crate::cvar::{CVarId, CVarRegistry, Domain};
use crate::error::CtableError;
use crate::relation::{CTuple, Relation, Schema};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// The slot caching one relation's *twin*: a form of the relation that
/// a downstream layer builds once and reuses for as long as the
/// relation is not written. The storage layer keeps its columnar table
/// here (`faure_storage::Table::twin`); this crate cannot name that
/// type, hence the `Any`. Every write to a slot replaces its whole
/// value, so a slot poisoned by a panic still holds a valid one and is
/// used as is.
pub type TwinSlot = Mutex<Option<Arc<dyn Any + Send + Sync>>>;

/// One relation of a database and the slot caching its twin.
struct Entry {
    relation: Relation,
    twin: TwinSlot,
}

impl Entry {
    fn new(relation: Relation) -> Self {
        Entry {
            relation,
            twin: Mutex::new(None),
        }
    }

    /// The relation, for writing: its twin no longer describes it.
    fn written(&mut self) -> &mut Relation {
        *self.twin.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        &mut self.relation
    }
}

/// A clone shares the twin: both copies hold the same rows until one of
/// them is written, which empties only its own slot.
impl Clone for Entry {
    fn clone(&self) -> Self {
        let twin = self.twin.lock().unwrap_or_else(PoisonError::into_inner);
        Entry {
            relation: self.relation.clone(),
            twin: Mutex::new(twin.clone()),
        }
    }
}

/// A fauré database: a c-variable registry plus named c-tables.
///
/// All relations of a database share the registry, so a c-variable may
/// appear in several tables (e.g. the same link-state variable in both
/// `F` and the derived `R` of Table 3).
///
/// Each relation has a [`TwinSlot`]. Every `&mut` path to a relation —
/// [`relation_mut`](Database::relation_mut), [`insert`](Database::insert),
/// [`set_relation`](Database::set_relation),
/// [`remove_relation`](Database::remove_relation),
/// [`create_relation`](Database::create_relation) — empties its slot,
/// so a twin never outlives the rows it was built from. The slot lives
/// here and not on [`Relation`], whose `tuples` are a public `Vec`
/// written directly.
#[derive(Clone, Default)]
pub struct Database {
    /// Registry of all c-variables.
    pub cvars: CVarRegistry,
    relations: BTreeMap<String, Entry>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh c-variable.
    pub fn fresh_cvar(&mut self, name: impl Into<String>, domain: Domain) -> CVarId {
        self.cvars.fresh(name, domain)
    }

    /// Registers a batch of fresh c-variables in one call (ids in
    /// input order) — see [`CVarRegistry::fresh_batch`].
    pub fn fresh_cvars<N: Into<String>>(
        &mut self,
        vars: impl IntoIterator<Item = (N, Domain)>,
    ) -> Vec<CVarId> {
        self.cvars.fresh_batch(vars)
    }

    /// Creates an empty relation; errors if the name is taken.
    pub fn create_relation(&mut self, schema: Schema) -> Result<(), CtableError> {
        if self.relations.contains_key(&schema.name) {
            return Err(CtableError::DuplicateRelation(schema.name));
        }
        self.relations
            .insert(schema.name.clone(), Entry::new(Relation::empty(schema)));
        Ok(())
    }

    /// Inserts (or replaces) a relation wholesale.
    pub fn set_relation(&mut self, relation: Relation) {
        self.relations
            .insert(relation.schema.name.clone(), Entry::new(relation));
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|e| &e.relation)
    }

    /// Looks up a relation mutably.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name).map(Entry::written)
    }

    /// Removes a relation, returning it if present.
    pub fn remove_relation(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name).map(|e| e.relation)
    }

    /// Appends a tuple to the named relation.
    pub fn insert(&mut self, name: &str, tuple: CTuple) -> Result<(), CtableError> {
        self.relation_mut(name)
            .ok_or_else(|| CtableError::UnknownRelation(name.to_owned()))?
            .push(tuple)
    }

    /// A relation by name, with the slot caching its twin.
    pub fn relation_and_twin(&self, name: &str) -> Option<(&Relation, &TwinSlot)> {
        self.relations.get(name).map(|e| (&e.relation, &e.twin))
    }

    /// Empties every relation's twin slot (the rows stay).
    pub fn clear_twins(&mut self) {
        for entry in self.relations.values_mut() {
            entry.written();
        }
    }

    /// Names of all relations (sorted).
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Iterator over all relations (sorted by name).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(|e| &e.relation)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations().map(Relation::len).sum()
    }
}

/// The registry and the relations; twins are a cache and not shown.
impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let relations: BTreeMap<&String, &Relation> = self
            .relations
            .iter()
            .map(|(k, e)| (k, &e.relation))
            .collect();
        f.debug_struct("Database")
            .field("cvars", &self.cvars)
            .field("relations", &relations)
            .finish()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations() {
            writeln!(f, "{}({}):", rel.schema.name, rel.schema.attrs.join(", "))?;
            for t in rel.iter() {
                writeln!(f, "  {}", t.display(&self.cvars))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn create_and_insert() {
        let mut db = Database::new();
        db.create_relation(Schema::new("F", &["a", "b"])).unwrap();
        db.insert("F", CTuple::new([Term::int(1), Term::int(2)]))
            .unwrap();
        assert_eq!(db.relation("F").unwrap().len(), 1);
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_relation(Schema::new("F", &["a"])).unwrap();
        assert_eq!(
            db.create_relation(Schema::new("F", &["a"])),
            Err(CtableError::DuplicateRelation("F".into()))
        );
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = Database::new();
        assert!(matches!(
            db.insert("X", CTuple::new([Term::int(1)])),
            Err(CtableError::UnknownRelation(_))
        ));
    }

    #[test]
    fn display_lists_relations() {
        let mut db = Database::new();
        db.create_relation(Schema::new("P", &["dest", "path"]))
            .unwrap();
        db.insert("P", CTuple::new([Term::sym("1.2.3.4"), Term::sym("[ABC]")]))
            .unwrap();
        let shown = db.to_string();
        assert!(shown.contains("P(dest, path):"));
        assert!(shown.contains("(1.2.3.4, [ABC])"));
    }

    fn twin_of(db: &Database, name: &str) -> Option<Arc<dyn Any + Send + Sync>> {
        let (_, slot) = db.relation_and_twin(name)?;
        slot.lock().unwrap().clone()
    }

    fn with_twins(names: &[&str]) -> Database {
        let mut db = Database::new();
        for name in names {
            db.create_relation(Schema::new(*name, &["a"])).unwrap();
            let (_, slot) = db.relation_and_twin(name).unwrap();
            *slot.lock().unwrap() = Some(Arc::new(name.to_string()));
        }
        db
    }

    /// Every `&mut` path to a relation empties its slot and only its
    /// slot; reads leave it alone.
    #[test]
    fn writes_empty_the_written_relations_slot() {
        let mut db = with_twins(&["F", "G"]);
        let _ = db.relation("F");
        let _ = db.relations().count();
        assert!(twin_of(&db, "F").is_some());
        db.relation_mut("F").unwrap().tuples.clear();
        assert!(twin_of(&db, "F").is_none());
        assert!(twin_of(&db, "G").is_some());

        let mut db = with_twins(&["F", "G"]);
        db.insert("F", CTuple::new([Term::int(1)])).unwrap();
        assert!(twin_of(&db, "F").is_none());
        db.set_relation(Relation::empty(Schema::new("G", &["a"])));
        assert!(twin_of(&db, "G").is_none());

        let mut db = with_twins(&["F"]);
        db.remove_relation("F");
        db.create_relation(Schema::new("F", &["a"])).unwrap();
        assert!(twin_of(&db, "F").is_none());

        let mut db = with_twins(&["F", "G"]);
        db.clear_twins();
        assert!(twin_of(&db, "F").is_none() && twin_of(&db, "G").is_none());
    }

    /// A clone shares its original's twins; writing one of the two
    /// empties that one's slot alone.
    #[test]
    fn clones_share_twins_until_written() {
        let db = with_twins(&["F"]);
        let mut copy = db.clone();
        let (a, b) = (twin_of(&db, "F").unwrap(), twin_of(&copy, "F").unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        copy.insert("F", CTuple::new([Term::int(1)])).unwrap();
        assert!(twin_of(&copy, "F").is_none());
        assert!(Arc::ptr_eq(&twin_of(&db, "F").unwrap(), &a));
        assert_eq!(db.relation("F").unwrap().len(), 0);
    }
}
