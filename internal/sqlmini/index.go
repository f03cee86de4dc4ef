package sqlmini

import (
	"strconv"
	"strings"
	"sync"
)

// Indexes. Every table with a PRIMARY KEY column keeps a hash index
// from the key's canonical string to the rows that ever held it, so
// uniqueness checks and equality point-lookups are O(1) instead of a
// full scan. Tables may additionally carry secondary indexes (declared
// with CREATE INDEX or DB.EnsureIndex/EnsureOrderedIndex) in one of
// two kinds:
//
//   - hash (the default, single-column): a concurrent map from a
//     column's canonical key to the bucket of rows holding that value,
//     in insertion order. Serves equality point-lookups.
//   - ordered (single- or multi-column): a skiplist of key groups over
//     the column tuple, each group holding its rows in insertion
//     order. Serves equality seeks in O(log n) and, through the
//     planner, range scans — including composite plans that pin a
//     prefix of the columns by equality and range over the next one.
//
// MVCC index contract: entries are inserted eagerly (INSERT, UPDATE
// key moves, rollback re-registration) but removed lazily — a key
// change keeps the old entry because readers at older snapshots still
// reach the row through it. Index lookups therefore return a superset
// of the matching rows; execution always filters candidates by version
// visibility and the statement's predicate, and range/multi-group
// gathers deduplicate (one row can legitimately sit in two groups).
// The deferred-GC queue (mvcc.go) drops entries once no live version
// carries the key and no registered reader can need them.
//
// Ordered-index grouping invariant: rows are grouped by Compare == 0
// over the stored tuples. Stored values are uniformly typed per column
// (post-coercion), where Compare is a total order, so all rows of one
// group compare identically against any probe key — which is what lets
// the planner treat a group as one unit when cutting range boundaries.

// pkCol returns the index of the table's PRIMARY KEY column, or -1.
func (t *Table) pkCol() int {
	for i, c := range t.Cols {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// initIndex prepares the PK index structures; call after Cols are set.
// Secondary indexes are added separately (addIndex) and survive this
// call.
func (t *Table) initIndex() {
	t.pk = t.pkCol()
	if t.pk >= 0 {
		t.pkIx = newHashIndex([]int{t.pk})
	}
	if t.rows.Load() == nil {
		t.rows.Store(newRowArr(8))
	}
	if t.indexes.Load() == nil {
		empty := []*secondaryIndex{}
		t.indexes.Store(&empty)
	}
}

// loadIndexes returns the published secondary-index set.
func (t *Table) loadIndexes() []*secondaryIndex { return *t.indexes.Load() }

// storeIndexes publishes a new secondary-index set (DDL only).
func (t *Table) storeIndexes(ixs []*secondaryIndex) { t.indexes.Store(&ixs) }

// pkKey canonicalizes a key value for hashing. Values are stored
// post-coercion, so one column holds one type and Str() is injective
// within it — except the DOUBLE zeroes, which compare equal but format
// differently, so negative zero is folded into "0".
func pkKey(v Value) string {
	if v.Type() == TypeDouble && v.f == 0 {
		return "0"
	}
	return v.Str()
}

// tupleKey canonicalizes a key tuple: single-column keys use pkKey
// directly (the hot path), longer tuples length-prefix each part so no
// byte sequence is ambiguous.
func tupleKey(key []Value) string {
	if len(key) == 1 {
		return pkKey(key[0])
	}
	var sb strings.Builder
	for _, v := range key {
		p := pkKey(v)
		sb.WriteString(strconv.Itoa(len(p)))
		sb.WriteByte(':')
		sb.WriteString(p)
	}
	return sb.String()
}

// tupleEqualAt reports whether vals projected through cols equals key
// by Compare (NULL components never match).
func tupleEqualAt(vals []Value, cols []int, key []Value) bool {
	for i, ci := range cols {
		c, ok := compare(&vals[ci], &key[i])
		if !ok || c != 0 {
			return false
		}
	}
	return true
}

// hashIndex is a concurrent non-unique hash index: a sync.Map from the
// canonical tuple key to an immutable bucket slice. Readers Load
// lock-free; the single writer (table latch held) replaces buckets
// copy-on-write.
type hashIndex struct {
	cols []int
	m    sync.Map // string -> []*Row (immutable)
}

func newHashIndex(cols []int) *hashIndex { return &hashIndex{cols: cols} }

// lookup returns the bucket for key; the slice is immutable.
func (h *hashIndex) lookup(key []Value) []*Row {
	v, ok := h.m.Load(tupleKey(key))
	if !ok {
		return nil
	}
	return v.([]*Row)
}

// insert adds r to key's bucket if absent. Caller holds the latch.
func (h *hashIndex) insert(key []Value, r *Row) {
	ks := tupleKey(key)
	var old []*Row
	if v, ok := h.m.Load(ks); ok {
		old = v.([]*Row)
	}
	for _, br := range old {
		if br == r {
			return
		}
	}
	grown := make([]*Row, len(old)+1)
	copy(grown, old)
	grown[len(old)] = r
	h.m.Store(ks, grown)
}

// remove drops r from key's bucket. Caller holds the latch.
func (h *hashIndex) remove(key []Value, r *Row) {
	ks := tupleKey(key)
	v, ok := h.m.Load(ks)
	if !ok {
		return
	}
	old := v.([]*Row)
	for i, br := range old {
		if br != r {
			continue
		}
		if len(old) == 1 {
			h.m.Delete(ks)
			return
		}
		rest := make([]*Row, 0, len(old)-1)
		rest = append(rest, old[:i]...)
		rest = append(rest, old[i+1:]...)
		h.m.Store(ks, rest)
		return
	}
}

// each visits every (key, bucket) pair; writer-side helper for
// consistency checks.
func (h *hashIndex) each(fn func(key string, rows []*Row)) {
	h.m.Range(func(k, v any) bool {
		fn(k.(string), v.([]*Row))
		return true
	})
}

// secondaryIndex is one non-unique index, hash (single-column) or
// ordered (single- or multi-column skiplist).
type secondaryIndex struct {
	name string
	cols []int
	kind IndexKind

	hash *hashIndex // kind == IndexHash
	skip *skipList  // kind == IndexOrdered

	// shadow is the hash structure this ordered index superseded via the
	// in-place upgrade path (declareIndex). A prepared plan bound just
	// before the upgrade may still probe it, so inserts keep feeding it;
	// entries are never GC'd from a shadow (lookups tolerate supersets,
	// and upgrades are rare enough that the leak is acceptable).
	shadow *hashIndex
}

// newSecondaryIndex allocates the backing structure for the given kind.
func newSecondaryIndex(name string, cols []int, kind IndexKind) *secondaryIndex {
	ix := &secondaryIndex{name: name, cols: append([]int(nil), cols...), kind: kind}
	if kind == IndexOrdered {
		ix.skip = newSkipList(ix.cols)
	} else {
		ix.hash = newHashIndex(ix.cols)
	}
	return ix
}

// colNames renders the indexed column list for Explain and snapshots.
func (ix *secondaryIndex) colNames(t *Table) []string {
	out := make([]string, len(ix.cols))
	for i, ci := range ix.cols {
		out[i] = t.Cols[ci].Name
	}
	return out
}

// keyFor projects a row's values into the index's tuple key; ok=false
// when any component is NULL (NULL tuples are not indexed — no
// equality or range predicate matches them).
func (ix *secondaryIndex) keyFor(vals []Value) ([]Value, bool) {
	key := make([]Value, len(ix.cols))
	for i, ci := range ix.cols {
		if vals[ci].IsNull() {
			return nil, false
		}
		key[i] = vals[ci]
	}
	return key, true
}

// insertFor registers vals' key for r (no-op on a NULL component or if
// already present). Caller holds the latch.
func (ix *secondaryIndex) insertFor(vals []Value, r *Row) {
	key, ok := ix.keyFor(vals)
	if !ok {
		return
	}
	if ix.kind == IndexHash {
		ix.hash.insert(key, r)
		return
	}
	ix.skip.insert(key, r)
	if ix.shadow != nil {
		ix.shadow.insert(key, r)
	}
}

// removeFor unregisters vals' key for r. Caller holds the latch (GC
// paths only; normal key changes are deferred via the GC queue).
func (ix *secondaryIndex) removeFor(vals []Value, r *Row) {
	key, ok := ix.keyFor(vals)
	if !ok {
		return
	}
	if ix.kind == IndexHash {
		ix.hash.remove(key, r)
		return
	}
	ix.skip.remove(key, r)
}

// lookup returns the candidate rows for an equality probe on the full
// tuple. The result may be a superset (stale entries) and, for ordered
// indexes, may contain duplicates across adjacent groups; callers
// filter and deduplicate. Lock-free.
func (ix *secondaryIndex) lookup(key []Value) []*Row {
	if ix.kind == IndexHash {
		return ix.hash.lookup(key)
	}
	return ix.skip.lookupEqual(key, nil)
}

// sameKey reports whether two keys land in the same bucket/group, i.e.
// no index movement is needed. Hash buckets key on the canonical
// string; ordered groups key on Compare equality (Equal suffices for
// uniformly typed stored values).
func (ix *secondaryIndex) sameKey(a, b []Value) bool {
	if ix.kind == IndexHash {
		return tupleKey(a) == tupleKey(b)
	}
	for i := range a {
		if c, ok := compare(&a[i], &b[i]); !ok || c != 0 {
			return false
		}
	}
	return true
}

// indexOn returns the first secondary index whose leading column is
// col; exact=true restricts to single-column indexes (hash candidates
// must cover the whole tuple).
func (t *Table) indexOn(col int) *secondaryIndex {
	for _, ix := range t.loadIndexes() {
		if ix.cols[0] == col {
			return ix
		}
	}
	return nil
}

// indexNamed returns the secondary index with the given name, if any.
func (t *Table) indexNamed(name string) *secondaryIndex {
	for _, ix := range t.loadIndexes() {
		if ix.name == name {
			return ix
		}
	}
	return nil
}

// indexWithCols returns the secondary index over exactly cols, if any.
func (t *Table) indexWithCols(cols []int) *secondaryIndex {
	for _, ix := range t.loadIndexes() {
		if len(ix.cols) != len(cols) {
			continue
		}
		same := true
		for i := range cols {
			if ix.cols[i] != cols[i] {
				same = false
				break
			}
		}
		if same {
			return ix
		}
	}
	return nil
}

// removeIndex drops one secondary index (the hash→ordered upgrade
// path). Caller holds ddlMu and the table latch.
func (t *Table) removeIndex(target *secondaryIndex) {
	old := t.loadIndexes()
	out := make([]*secondaryIndex, 0, len(old))
	for _, ix := range old {
		if ix != target {
			out = append(out, ix)
		}
	}
	t.storeIndexes(out)
}

// addIndex creates a secondary index over cols and backfills it from
// every live version of every row — not just the current ones — so
// readers at older snapshots can still find rows whose key has since
// moved. Caller holds ddlMu and the table latch; name/columns are
// validated.
func (t *Table) addIndex(name string, cols []int, kind IndexKind) {
	ix := newSecondaryIndex(name, cols, kind)
	for _, r := range t.rows.Load().snapshot() {
		for v := r.v.Load(); v != nil; v = v.prev.Load() {
			if !v.dead {
				ix.insertFor(v.vals, r)
			}
		}
	}
	t.storeIndexes(append(append([]*secondaryIndex{}, t.loadIndexes()...), ix))
}

// indexInsert registers a freshly inserted row in the PK and all
// secondary indexes; caller holds the latch and has checked
// uniqueness.
func (t *Table) indexInsert(r *Row, vals []Value) {
	if t.pk >= 0 {
		if v := vals[t.pk]; !v.IsNull() {
			t.pkIx.insert(vals[t.pk:t.pk+1], r)
		}
	}
	for _, ix := range t.loadIndexes() {
		ix.insertFor(vals, r)
	}
}

// indexEnsure re-registers a row under vals' keys if absent (rollback
// restoring values whose entries GC may have dropped). Caller holds
// the latch.
func (t *Table) indexEnsure(r *Row, vals []Value) {
	t.indexInsert(r, vals) // insert paths are add-if-absent
}

// indexUpdate registers a row's new keys after an update. Old entries
// stay for older snapshots; each changed key enqueues a deferred
// removal hint for GC. Caller holds the latch; c is the statement's
// commit number.
func (t *Table) indexUpdate(r *Row, oldVals, newVals []Value, c uint64) {
	if t.pk >= 0 {
		oldV, newV := oldVals[t.pk], newVals[t.pk]
		oldOK, newOK := !oldV.IsNull(), !newV.IsNull()
		moved := oldOK != newOK || (oldOK && newOK && tupleKey(oldVals[t.pk:t.pk+1]) != tupleKey(newVals[t.pk:t.pk+1]))
		if moved {
			if newOK {
				t.pkIx.insert(newVals[t.pk:t.pk+1], r)
			}
			if oldOK {
				t.gc.enqueue(gcItem{c: c, row: r, hash: t.pkIx, key: []Value{oldV}})
			}
		}
	}
	for _, ix := range t.loadIndexes() {
		oldKey, oldOK := ix.keyFor(oldVals)
		newKey, newOK := ix.keyFor(newVals)
		if oldOK && newOK && ix.sameKey(oldKey, newKey) {
			continue
		}
		if newOK {
			ix.insertFor(newVals, r)
		}
		if oldOK {
			it := gcItem{c: c, row: r, key: oldKey}
			if ix.kind == IndexHash {
				it.hash = ix.hash
			} else {
				it.skip = ix.skip
			}
			t.gc.enqueue(it)
		}
	}
}

// lookupPKCurrent finds the live row currently holding the given PK
// value, if any. Caller holds the latch (uniqueness checks) or accepts
// latest-committed semantics (FK existence checks).
func (t *Table) lookupPKCurrent(v Value) (*Row, bool) {
	if t.pk < 0 || v.IsNull() {
		return nil, false
	}
	for _, r := range t.pkIx.lookup([]Value{v}) {
		vals := r.curVals()
		if vals != nil && Equal(vals[t.pk], v) {
			return r, true
		}
	}
	return nil, false
}

// pkCandidates returns the PK bucket for a probe (a superset: stale
// entries and dead rows filter out downstream). Lock-free.
func (t *Table) pkCandidates(v Value) []*Row {
	if t.pk < 0 || v.IsNull() {
		return nil
	}
	return t.pkIx.lookup([]Value{v})
}

// rebuildIndex reconstructs the PK index and every secondary index
// from the current rows (snapshot restore, on fresh tables).
func (t *Table) rebuildIndex() {
	t.pk = t.pkCol()
	if t.pk >= 0 {
		t.pkIx = newHashIndex([]int{t.pk})
	}
	ixs := t.loadIndexes()
	fresh := make([]*secondaryIndex, len(ixs))
	for i, ix := range ixs {
		fresh[i] = newSecondaryIndex(ix.name, ix.cols, ix.kind)
	}
	t.storeIndexes(fresh)
	for _, r := range t.rows.Load().snapshot() {
		vals := r.curVals()
		if vals != nil {
			t.indexInsert(r, vals)
		}
	}
}
