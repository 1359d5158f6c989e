// Routed-solve fixture: a `route_*` engine call made under a database guard
// is a lock-discipline finding; a reasoned allow covering such a call is
// live and counted; a reasoned allow that covers nothing is itself a finding.

impl Store {
    fn unannotated(&self, prepared: &PreparedQuery) {
        let db = self.handle.lock();
        prepared.route_incremental(&mut db.solver, &db.graph, None);
    }

    fn annotated(&self, prepared: &PreparedQuery) {
        let db = self.handle.lock();
        // lint: allow(lock-discipline, solves serialize per database by design)
        prepared.route_with_cut_traced(&db.graph);
    }

    fn dead_annotation(&self) {
        // lint: allow(lock-discipline, nothing on the next line blocks)
        let facts = self.facts;
    }
}
