// Package storage implements the local database of a peer (the "LDB" of the
// paper's Figure 2 architecture): a schema registry plus in-memory relations
// with duplicate-free insertion, labelled-null support, delta extraction via
// per-subscriber high-water marks, and snapshots for validation. A DB is safe
// for concurrent use; the peer runtime serialises writes but statistics and
// validators read concurrently.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cq"
	"repro/internal/relalg"
)

// DB is one node's local database.
type DB struct {
	mu        sync.RWMutex
	relations map[string]*relalg.Relation
	schemas   []relalg.Schema // declaration order

	lmu             sync.RWMutex
	listeners       []InsertListener
	schemaListeners []SchemaListener
}

// InsertListener observes committed inserts, one call per run of new tuples:
// ts is a run of consecutive tuples of an InsertAll (or Insert) argument that
// were all new, and last is the sequence number of its last tuple in rel's
// append log, so the run holds seqs last-len(ts)+1 through last (the
// recovery cursor of the durable backend). A duplicate or core-subsumed tuple
// ends a run and is never passed. The slice and its tuples are the
// inserter's and only valid during the call: a listener that keeps them must
// copy them. Listeners run after the run is committed and after the database
// lock is released, on the inserting goroutine; they may read the database
// but must not block, and must tolerate being called concurrently with other
// inserts. The peer runtime uses one to wake continuous-query watchers; the
// wal store uses one to append a batch of log records.
type InsertListener func(rel string, ts []relalg.Tuple, last uint64)

// SchemaListener observes successful new schema registrations (identical
// redeclarations do not fire). Like insert listeners, schema listeners run
// after the database lock is released on the declaring goroutine.
type SchemaListener func(s relalg.Schema)

// AddInsertListener registers a listener for all future successful inserts.
func (db *DB) AddInsertListener(f InsertListener) {
	db.lmu.Lock()
	db.listeners = append(db.listeners, f)
	db.lmu.Unlock()
}

// AddSchemaListener registers a listener for all future new schema
// registrations.
func (db *DB) AddSchemaListener(f SchemaListener) {
	db.lmu.Lock()
	db.schemaListeners = append(db.schemaListeners, f)
	db.lmu.Unlock()
}

// notifyInsert fires the listeners for one committed run. Callers must not
// hold db.mu.
func (db *DB) notifyInsert(rel string, ts []relalg.Tuple, last uint64) {
	db.lmu.RLock()
	ls := db.listeners
	db.lmu.RUnlock()
	for _, f := range ls {
		f(rel, ts, last)
	}
}

// notifySchema fires the schema listeners for one new registration. Callers
// must not hold db.mu.
func (db *DB) notifySchema(s relalg.Schema) {
	db.lmu.RLock()
	ls := db.schemaListeners
	db.lmu.RUnlock()
	for _, f := range ls {
		f(s)
	}
}

// New creates an empty database with the given schemas.
func New(schemas ...relalg.Schema) *DB {
	db := &DB{relations: make(map[string]*relalg.Relation)}
	for _, s := range schemas {
		db.MustAddSchema(s)
	}
	return db
}

// AddSchema registers a relation schema; it errors if the name is taken with
// a different arity or different attribute names, and is a no-op for an
// identical redeclaration.
func (db *DB) AddSchema(s relalg.Schema) error {
	switch err := db.addSchema(s); err {
	case nil:
		db.notifySchema(s)
		return nil
	case errSchemaExists: // identical redeclaration: fine, nothing new to announce
		return nil
	default:
		return err
	}
}

func (db *DB) addSchema(s relalg.Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if existing, ok := db.relations[s.Name]; ok {
		prev := existing.Schema()
		if prev.Arity() != s.Arity() {
			return fmt.Errorf("storage: relation %s redeclared with arity %d (was %d)",
				s.Name, s.Arity(), prev.Arity())
		}
		for i, attr := range prev.Attrs {
			if s.Attrs[i] != attr {
				return fmt.Errorf("storage: relation %s redeclared with attributes %v (was %v)",
					s.Name, s.Attrs, prev.Attrs)
			}
		}
		return errSchemaExists
	}
	db.relations[s.Name] = relalg.NewRelation(s)
	db.schemas = append(db.schemas, s)
	return nil
}

// errSchemaExists marks an identical redeclaration internally so AddSchema
// can skip the listener notification; it is never returned to callers.
var errSchemaExists = fmt.Errorf("storage: schema already declared")

// MustAddSchema is AddSchema that panics on error, for construction sites
// with statically known schemas.
func (db *DB) MustAddSchema(s relalg.Schema) {
	if err := db.AddSchema(s); err != nil {
		panic(err)
	}
}

// Schemas returns the declared schemas in declaration order.
func (db *DB) Schemas() []relalg.Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]relalg.Schema, len(db.schemas))
	copy(out, db.schemas)
	return out
}

// HasRelation reports whether a relation with the name is declared.
func (db *DB) HasRelation(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.relations[name]
	return ok
}

// Arity returns the arity of the named relation, or -1 if undeclared.
func (db *DB) Arity(name string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if r, ok := db.relations[name]; ok {
		return r.Schema().Arity()
	}
	return -1
}

// Rel implements cq.Source: it returns the named relation or nil. The
// returned relation must be treated as read-only by callers; insertion goes
// through DB.Insert so counters and marks stay consistent.
func (db *DB) Rel(name string) *relalg.Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.relations[name]
}

var _ cq.Source = (*DB)(nil)

// InsertMode selects the redundancy check applied on insertion.
type InsertMode uint8

const (
	// InsertExact skips a tuple only when the identical tuple is present
	// (the paper's "if π_R(t) ∉ R" check; deterministic Skolemisation makes
	// re-derivations identical, so this terminates).
	InsertExact InsertMode = iota
	// InsertCore additionally skips tuples subsumed by an existing tuple
	// (nulls map homomorphically), yielding smaller materialisations.
	InsertCore
	// InsertFresh is InsertExact for a replayed log, where every tuple is
	// new: InsertAll stops before the first tuple already present and
	// returns fewer than len(ts) with no error.
	InsertFresh
)

// Insert adds one tuple to the named relation, returning whether the database
// changed: an InsertAll of one.
func (db *DB) Insert(rel string, t relalg.Tuple, mode InsertMode) (bool, error) {
	n, err := db.InsertAll(rel, []relalg.Tuple{t}, mode)
	return n == 1, err
}

// maxRuns bounds the runs of new tuples one hold of db.mu records for its
// listeners; a batch that ends more runs than that (many duplicates
// interleaved with news) releases the lock to notify, then goes on.
const maxRuns = 16

// InsertAll inserts a batch into the named relation in order, returning how
// many tuples were new. Undeclared relations and tuples of another arity are
// an error; the tuples before the failing one stay committed and notified.
// The batch is committed under one hold of the lock (see maxRuns), and the
// insert listeners fire after it is released, once per run of new tuples
// (see InsertListener). ts is only read, and the call allocates nothing.
func (db *DB) InsertAll(rel string, ts []relalg.Tuple, mode InsertMode) (int, error) {
	var runs [maxRuns]struct {
		from, to int
		last     uint64
	}
	added, stop := 0, false
	for i := 0; i < len(ts) && !stop; {
		db.mu.Lock()
		r, ok := db.relations[rel]
		if !ok {
			db.mu.Unlock()
			return 0, fmt.Errorf("storage: insert into undeclared relation %q", rel)
		}
		n := 0
		var err error
		for ; i < len(ts); i++ {
			if n == maxRuns && runs[n-1].to < i {
				break // a new run would not fit: notify these first
			}
			t := ts[i]
			if mode == InsertCore && t.HasNull() && r.SubsumedByExisting(t) {
				continue
			}
			var isNew bool
			if isNew, err = r.Insert(t); err != nil {
				break
			}
			if !isNew {
				if stop = mode == InsertFresh; stop {
					break
				}
				continue
			}
			added++
			if n > 0 && runs[n-1].to == i {
				runs[n-1].to, runs[n-1].last = i+1, r.Seq()
			} else {
				runs[n].from, runs[n].to, runs[n].last = i, i+1, r.Seq()
				n++
			}
		}
		db.mu.Unlock()
		for _, run := range runs[:n] {
			db.notifyInsert(rel, ts[run.from:run.to], run.last)
		}
		if err != nil {
			return added, err
		}
	}
	return added, nil
}

// Count returns the number of tuples in the named relation (0 if absent).
func (db *DB) Count(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if r, ok := db.relations[rel]; ok {
		return r.Len()
	}
	return 0
}

// TotalTuples returns the number of tuples across all relations.
func (db *DB) TotalTuples() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, r := range db.relations {
		n += r.Len()
	}
	return n
}

// Marks is a high-water-mark vector over relations, used to extract deltas
// for a particular subscriber ("delta optimization").
type Marks map[string]uint64

// Clone returns an independent copy, never nil.
func (m Marks) Clone() Marks {
	out := make(Marks, len(m))
	for rel, seq := range m {
		out[rel] = seq
	}
	return out
}

// Covers reports whether m is at or beyond o on every relation o marks (the
// acknowledgment check: a durable frontier covering the in-flight frontier
// means nothing shipped remains unconfirmed).
func (m Marks) Covers(o Marks) bool {
	for rel, seq := range o {
		if m[rel] < seq {
			return false
		}
	}
	return true
}

// MarksFor returns the current high-water marks of the named relations
// (undeclared relations are omitted and read back as mark 0), without
// materialising any delta. Use it to prime a subscriber's marks after a full
// evaluation.
func (db *DB) MarksFor(rels []string) Marks {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := make(Marks, len(rels))
	for _, name := range rels {
		if r, ok := db.relations[name]; ok {
			m[name] = r.Seq()
		}
	}
	return m
}

// DeltaSince returns, for each named relation, the tuples inserted after the
// marks, and the advanced marks. Pass nil marks for "everything". Each slice
// holds read-only views of a relation's rows (see relalg.Relation.Since): no
// value is copied under the lock, and the views stay valid, unchanged, while
// the relations grow.
func (db *DB) DeltaSince(marks Marks, rels []string) (map[string][]relalg.Tuple, Marks) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string][]relalg.Tuple)
	next := make(Marks, len(rels))
	for _, name := range rels {
		r, ok := db.relations[name]
		if !ok {
			continue
		}
		var mark uint64
		if marks != nil {
			mark = marks[name]
		}
		delta, newMark := r.Since(mark)
		if len(delta) > 0 {
			out[name] = delta
		}
		next[name] = newMark
	}
	return out, next
}

// Snapshot deep-copies the database contents (used by validators and the
// centralised baseline).
func (db *DB) Snapshot() map[string]*relalg.Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]*relalg.Relation, len(db.relations))
	for name, r := range db.relations {
		out[name] = r.Clone()
	}
	return out
}

// Clone returns an independent copy of the whole database.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := &DB{relations: make(map[string]*relalg.Relation, len(db.relations))}
	c.schemas = append(c.schemas, db.schemas...)
	for name, r := range db.relations {
		c.relations[name] = r.Clone()
	}
	return c
}

// Equal reports whether two databases hold exactly the same extents for the
// union of their declared relations.
func (db *DB) Equal(o *DB) bool {
	names := map[string]bool{}
	for _, s := range db.Schemas() {
		names[s.Name] = true
	}
	for _, s := range o.Schemas() {
		names[s.Name] = true
	}
	for name := range names {
		a, b := db.Rel(name), o.Rel(name)
		switch {
		case a == nil && b == nil:
		case a == nil:
			if b.Len() != 0 {
				return false
			}
		case b == nil:
			if a.Len() != 0 {
				return false
			}
		default:
			if !a.Equal(b) {
				return false
			}
		}
	}
	return true
}

// Dump renders the database deterministically, for debugging and golden
// tests.
func (db *DB) Dump() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.relations))
	for n := range db.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += db.relations[n].String() + "\n"
	}
	return s
}
