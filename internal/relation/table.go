package relation

import (
	"fmt"
	"sync"
)

// Table is a concurrency-safe, append-only in-memory relation.
// The zero value is not usable; construct with NewTable.
type Table struct {
	name   string
	schema *Schema

	mu   sync.RWMutex
	rows []Tuple
	// version counts appended rows forever; pollers use it as a cursor.
	version int64
	waiters []chan struct{}
	closed  bool
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the current number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a tuple after checking it against the schema.
func (t *Table) Insert(tup Tuple) error {
	if tup.Schema != nil && tup.Schema.Len() != t.schema.Len() {
		return fmt.Errorf("relation: insert into %s: arity %d != %d", t.name, tup.Schema.Len(), t.schema.Len())
	}
	if len(tup.Values) != t.schema.Len() {
		return fmt.Errorf("relation: insert into %s: %d values for %d columns", t.name, len(tup.Values), t.schema.Len())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("relation: insert into closed table %s", t.name)
	}
	t.rows = append(t.rows, Tuple{Schema: t.schema, Values: tup.Values})
	t.version++
	t.notifyLocked()
	return nil
}

// InsertValues appends a row given bare values.
func (t *Table) InsertValues(values ...Value) error {
	return t.Insert(Tuple{Schema: t.schema, Values: values})
}

// Snapshot returns a copy of the current rows.
func (t *Table) Snapshot() []Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Tuple, len(t.rows))
	copy(out, t.rows)
	return out
}

// View returns the current rows without copying them: a slice capped at
// its length, so it shares the table's storage but never sees later
// appends. Tables are append-only, so the rows in a view never change.
// The view is read-only: callers must not write or reorder its elements
// (Snapshot returns a copy they may reorder).
func (t *Table) View() []Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Row returns the i-th row.
func (t *Table) Row(i int) Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[i]
}

// Version returns the monotone row-count cursor.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Poll returns rows appended after cursor (a value previously returned by
// Poll or Version; 0 means "from the beginning") together with the new
// cursor. It never blocks; see Wait for blocking.
func (t *Table) Poll(cursor int64) ([]Tuple, int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > int64(len(t.rows)) {
		cursor = int64(len(t.rows))
	}
	fresh := t.rows[cursor:]
	out := make([]Tuple, len(fresh))
	copy(out, fresh)
	return out, t.version
}

// Close marks the table complete: no further inserts are accepted, and
// Wait returns immediately. Used by result tables to signal end-of-query.
func (t *Table) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.notifyLocked()
}

// Closed reports whether the table has been closed.
func (t *Table) Closed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.closed
}

// Wait blocks until the table's version exceeds cursor or the table is
// closed. It returns the rows past cursor and the new cursor, like Poll.
func (t *Table) Wait(cursor int64) ([]Tuple, int64) {
	for {
		t.mu.Lock()
		if t.version > cursor || t.closed {
			t.mu.Unlock()
			return t.Poll(cursor)
		}
		ch := make(chan struct{})
		t.waiters = append(t.waiters, ch)
		t.mu.Unlock()
		<-ch
	}
}

// WaitClosed blocks until Close is called, then returns all rows.
func (t *Table) WaitClosed() []Tuple {
	cursor := int64(0)
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			rows, _ := t.Poll(0)
			return rows
		}
		ch := make(chan struct{})
		t.waiters = append(t.waiters, ch)
		t.mu.Unlock()
		<-ch
		_ = cursor
	}
}

func (t *Table) notifyLocked() {
	for _, ch := range t.waiters {
		close(ch)
	}
	t.waiters = nil
}

// Catalog is a named collection of tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds a table; replacing an existing name is an error.
func (c *Catalog) Register(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name()]; dup {
		return fmt.Errorf("relation: table %q already registered", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Replace adds or replaces a table.
func (c *Catalog) Replace(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name()] = t
}

// Drop removes a table by name.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, name)
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Names returns the registered table names (unordered).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}
