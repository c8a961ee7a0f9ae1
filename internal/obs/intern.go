package obs

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The intern table is bounded because some strings come from clients:
// the request span's method arg is whatever method a request names.
// Past either bound a string records as overflowName (ID 0) and counts
// in obs_trace_intern_overflow_total.
const (
	internCap   = 4096    // distinct strings
	internBytes = 1 << 20 // their total length
	// internSlots keeps the open-addressed index at most half full, so
	// every probe sequence reaches an empty slot.
	internSlots  = 2 * internCap
	overflowName = "(overflow)"
)

// internTable maps the strings spans carry (categories, names, arg keys
// and string values) to the small IDs a trace record stores, so the
// ring holds no pointers and the GC never scans it. A lookup of a
// string already present takes no lock and allocates nothing.
type internTable struct {
	seed maphash.Seed
	// slots holds ID+1 (0 = empty), indexed by hash with linear probing.
	// A slot is stored after strs[ID] is written, so a reader that
	// loads it sees the string.
	slots [internSlots]atomic.Uint32
	strs  [internCap]string
	// recent maps a string's address to its ID+1, so a literal passed
	// at every call skips the hash. An entry is only a hint: id checks
	// the bytes, and a stale or colliding entry costs one hash lookup.
	recent [256]atomic.Uint32

	mu       sync.Mutex // serializes inserts
	n, bytes int        // guarded by mu
	overflow atomic.Uint64
}

func newInternTable() *internTable {
	t := &internTable{seed: maphash.MakeSeed()}
	t.id(overflowName)
	return t
}

// id returns s's ID, interning a copy of s on first sight.
func (t *internTable) id(s string) uint16 {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	hint := &t.recent[(p^p>>8^uintptr(len(s)))%uintptr(len(t.recent))]
	if v := hint.Load(); v != 0 && t.strs[v-1] == s {
		return uint16(v - 1)
	}
	h := maphash.String(t.seed, s)
	id, _, ok := t.find(h, s)
	if !ok {
		id = t.insert(h, s)
	}
	hint.Store(uint32(id) + 1)
	return id
}

// insert is id's locked path for a string not yet in the table.
func (t *internTable) insert(h uint64, s string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, slot, ok := t.find(h, s) // another writer may have inserted s
	if ok {
		return id
	}
	if t.n == internCap || t.bytes+len(s) > internBytes {
		t.overflow.Add(1)
		return 0
	}
	t.strs[t.n] = strings.Clone(s) // s may alias a larger buffer, e.g. a request line
	t.slots[slot].Store(uint32(t.n + 1))
	t.n++
	t.bytes += len(s)
	return uint16(t.n - 1)
}

// find probes from hash h for s: its ID when present, else the empty
// slot it would take.
func (t *internTable) find(h uint64, s string) (id uint16, slot uint64, ok bool) {
	for i := h; ; i++ {
		slot = i & (internSlots - 1)
		v := t.slots[slot].Load()
		if v == 0 {
			return 0, slot, false
		}
		if t.strs[v-1] == s {
			return uint16(v - 1), 0, true
		}
	}
}

// str returns the string an ID stands for. The ID must come from id,
// directly or through a record pushed after it was issued.
func (t *internTable) str(id uint16) string { return t.strs[id] }
