// Package intern implements hash-consing for the value model: every
// value.Value maps to a canonical ID (a uint32, dense from 1), so structural
// equality becomes integer comparison and nested objects can be built
// bottom-up from the IDs of their parts without re-hashing their contents.
//
// An Interner is an append-only arena plus a sharded hash index. IDs are
// never reused or reassigned, so a published ID is immutable evidence: two
// values interned by the same Interner are structurally equal iff their IDs
// are equal. The process-global interner (Global) additionally writes each
// value's ID back onto the value's cache cell, which makes re-interning O(1)
// and lets value.Compare prove equality from two cached IDs without walking
// either value.
//
// Layout: the arena holds one 24-byte entry per ID (the canonical value plus
// the offset and count of its element IDs) in fixed-size chunks, and the
// element IDs of every tuple and set back to back in a shared chunked child
// arena; a node wider than a child chunk keeps its own slice in a side
// table. Each of the 64 index shards is an open-addressed table of uint64
// slots, tag<<32 | ID, where the tag is the upper half of the value's hash.
// Neither the slot tables nor the child chunks hold pointers, so the garbage
// collector never scans them.
//
// Concurrency: Intern, InternTuple, InternSet and InternInt take one shard
// lock plus a short arena lock on first sight of a value; Lookup and Elems
// are lock-free (atomic loads of the chunk directories). The arena only
// grows, entries and their element IDs are written before their ID is
// published, and publication happens under a shard mutex (the slot store)
// or through an atomic cache-cell store, so readers that hold an ID always
// observe its fully-written entry. The package is -race-clean under
// concurrent use from the server's executor pool.
//
// Limits: IDs and child-arena offsets are uint32. Interning a value that
// would need one past math.MaxUint32 panics with ErrExhausted rather than
// wrap.
package intern

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"algrec/internal/value"
)

// ID is the canonical identifier of an interned value. The zero ID is
// invalid: real IDs start at 1, so a zero in a cache cell or a row slot
// unambiguously means "not interned yet".
type ID uint32

// ErrExhausted is the panic value (wrapped; test with errors.Is) raised when
// an interner has issued every ID or filled its child arena. Nothing of the
// value that hit the limit is published, and the interner stays usable for
// values it already holds.
var ErrExhausted = errors.New("intern: interner exhausted")

const (
	nShards   = 64
	shardMask = nShards - 1

	// chunkBits sizes the arena chunks (4096 entries each). Chunks are never
	// moved once allocated, so &entry stays valid across growth and the
	// directory can be republished with a plain copy.
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// childChunkBits sizes the child-arena chunks (4096 IDs, 16 KiB). A
	// node's element IDs never straddle two chunks, so Elems is a subslice;
	// a node that does not fit in the current chunk's tail starts the next.
	childChunkBits = 12
	childChunkSize = 1 << childChunkBits
	childChunkMask = childChunkSize - 1

	// minSlots is each shard's initial slot-table size (a power of two).
	minSlots = 16

	// smallIntRange bounds the direct-indexed fast path for InternInt: the
	// workload integers of every experiment (chain node numbers, generated
	// scalars) land far below it.
	smallIntRange = 1 << 14

	entryBytes = int64(unsafe.Sizeof(entry{}))
)

// entry is one arena slot: the canonical value and, for tuples and sets, the
// location of its element IDs (tuple order / canonical set order): n IDs at
// child-arena offset off, or, when n > childChunkSize, the slice at index
// off of the wide side table. The element IDs double as the structural
// signature used to verify index candidates, so a probe never needs a deep
// Compare.
type entry struct {
	v      value.Value
	off, n uint32
}

// shard is one lock domain of the hash index: an open-addressed table of
// slots holding tag<<32 | ID (0 = empty), probed linearly from the slot
// tag & mask and doubled at 3/4 load.
type shard struct {
	mu    sync.Mutex
	slots []uint64
	used  int
}

// Interner is a hash-consing arena. The zero value is not usable; construct
// with New, or use the shared process-global instance from Global.
type Interner struct {
	// global marks the process-global interner, the only one allowed to
	// write IDs into value cache cells (a private interner's IDs would
	// corrupt the cells for everyone else).
	global bool

	shards [nShards]shard

	mu        sync.Mutex // guards arena growth (directory republish, next, childNext)
	dir       atomic.Pointer[[]*chunk]
	next      atomic.Uint32 // count of assigned IDs; written under mu
	children  atomic.Pointer[[]*childChunk]
	wide      atomic.Pointer[[][]ID] // element IDs of nodes wider than a child chunk
	childNext uint32                 // child-arena slots handed out, tails skipped included

	// maxIDs and maxChildren bound next and childNext (math.MaxUint32; tests
	// lower them to reach exhaustion).
	maxIDs, maxChildren uint32

	// bytes is the interner's own accounted footprint: entry chunks, child
	// chunks and wide slices, slot tables and the small-int table.
	bytes atomic.Int64

	smallInts []atomic.Uint32 // value.Int(i) -> ID, 0 = not yet consed

	trueID, falseID ID
}

type chunk struct {
	entries [chunkSize]entry
}

type childChunk [childChunkSize]ID

// New returns a fresh private interner with its own ID space. Private
// interners never touch value cache cells; tests use them to exercise the
// consing logic in isolation.
func New() *Interner { return newInterner(false) }

var globalInterner = newInterner(true)

// Global returns the process-global interner shared by every engine and, via
// the server, by all named databases. Its IDs are the ones cached on value
// cells and used by the Compare fast path.
func Global() *Interner { return globalInterner }

func newInterner(global bool) *Interner {
	in := &Interner{
		global:      global,
		smallInts:   make([]atomic.Uint32, smallIntRange),
		maxIDs:      math.MaxUint32,
		maxChildren: math.MaxUint32,
	}
	for i := range in.shards {
		in.shards[i].slots = make([]uint64, minSlots)
	}
	in.bytes.Store(smallIntRange*4 + nShards*minSlots*8)
	dir := make([]*chunk, 0)
	in.dir.Store(&dir)
	children := make([]*childChunk, 0)
	in.children.Store(&children)
	wide := make([][]ID, 0)
	in.wide.Store(&wide)
	in.trueID = in.Intern(value.True)
	in.falseID = in.Intern(value.False)
	return in
}

// Len returns the number of distinct values interned so far.
func (in *Interner) Len() int { return int(in.next.Load()) }

// Bytes returns the interner's own memory footprint in bytes: its entry
// chunks, child-ID storage, index slot tables and small-integer table. It
// excludes the interned values themselves, which callers share. Bytes reads
// one counter and is safe for concurrent use.
func (in *Interner) Bytes() int64 { return in.bytes.Load() }

// Lookup returns the canonical value for id. It is lock-free and safe for
// concurrent use. Lookup panics if id is zero or was not issued by this
// interner.
func (in *Interner) Lookup(id ID) value.Value { return in.entryOf(id).v }

// Elems returns the element IDs of an interned tuple or set (tuple order,
// respectively canonical set order), or nil for a scalar or an empty node.
// It is lock-free. The returned slice is owned by the interner and must not
// be modified.
func (in *Interner) Elems(id ID) []ID {
	e := in.entryOf(id)
	return in.elemsOf(e.off, e.n)
}

func (in *Interner) elemsOf(off, n uint32) []ID {
	switch {
	case n == 0:
		return nil
	case n > childChunkSize:
		return (*in.wide.Load())[off]
	}
	c := (*in.children.Load())[off>>childChunkBits]
	o := off & childChunkMask
	return c[o : o+n : o+n]
}

func (in *Interner) entryOf(id ID) *entry {
	if id == 0 {
		panic("intern: Lookup of zero ID")
	}
	i := uint32(id) - 1
	dir := *in.dir.Load()
	return &dir[i>>chunkBits].entries[i&chunkMask]
}

// Intern returns the canonical ID for v, assigning one if v has not been
// seen. Nested tuples and sets are consed bottom-up, so a second Intern of a
// structurally equal value — however it was built — returns the same ID.
func (in *Interner) Intern(v value.Value) ID {
	if in.global {
		if id := value.InternID(v); id != 0 {
			return ID(id)
		}
	}
	switch vv := v.(type) {
	case value.Bool:
		// trueID/falseID are 0 only during newInterner's own bootstrap.
		if vv && in.trueID != 0 {
			return in.trueID
		}
		if !vv && in.falseID != 0 {
			return in.falseID
		}
		return in.internScalar(v, hashBool(bool(vv)))
	case value.Int:
		return in.InternInt(int64(vv))
	case value.String:
		return in.internScalar(v, hashString(string(vv)))
	case value.Tuple:
		ids := make([]ID, vv.Len())
		for i := range ids {
			ids[i] = in.Intern(vv.At(i))
		}
		return in.internNode(value.KindTuple, ids, v)
	case value.Set:
		ids := make([]ID, vv.Len())
		for i := range ids {
			ids[i] = in.Intern(vv.At(i))
		}
		return in.internNode(value.KindSet, ids, v)
	default:
		panic("intern: unknown value kind")
	}
}

// InternInt returns the canonical ID for the integer i. Small non-negative
// integers resolve through a direct-indexed array: one atomic load on a hit.
func (in *Interner) InternInt(i int64) ID {
	if i >= 0 && i < smallIntRange {
		if id := in.smallInts[i].Load(); id != 0 {
			return ID(id)
		}
		id := in.internScalar(value.Int(i), hashInt(i))
		in.smallInts[i].Store(uint32(id))
		return id
	}
	return in.internScalar(value.Int(i), hashInt(i))
}

// InternTuple returns the canonical ID of the tuple whose elements are the
// given already-interned IDs, materializing the tuple value only on first
// sight. This is the consing constructor the grounder's fact store uses to
// turn a projected ID row into a single map key.
func (in *Interner) InternTuple(ids ...ID) ID {
	return in.internNode(value.KindTuple, ids, nil)
}

// InternSet returns the canonical ID of the set of the given already-interned
// element IDs. The elements are canonicalized (sorted by the value order,
// deduplicated) first, so InternSet agrees with Intern of the equivalent
// value.NewSet regardless of input order.
func (in *Interner) InternSet(ids ...ID) ID {
	cp := make([]ID, len(ids))
	copy(cp, ids)
	sort.Slice(cp, func(i, j int) bool {
		return in.Lookup(cp[i]).Compare(in.Lookup(cp[j])) < 0
	})
	out := cp[:0]
	for _, id := range cp {
		// Equal values have equal IDs here, so adjacent-ID dedup is exact.
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return in.internNode(value.KindSet, out, nil)
}

// internScalar interns a bool, int or string by content hash.
func (in *Interner) internScalar(v value.Value, h uint64) ID {
	sh := &in.shards[h&shardMask]
	tag := uint32(h >> 32)
	sh.mu.Lock()
	slot, id := sh.probe(tag, func(cand ID) bool {
		return value.Equal(in.entryOf(cand).v, v)
	})
	if id != 0 {
		sh.mu.Unlock()
		return id
	}
	id, err := in.alloc(v, nil)
	if err != nil {
		sh.mu.Unlock()
		panic(err)
	}
	in.publish(sh, slot, tag, id)
	sh.mu.Unlock()
	return id
}

// internNode interns a tuple or set given its element IDs. v is the original
// value when the caller has one (Intern) and nil when the node is built from
// IDs alone (InternTuple/InternSet); in the latter case the canonical value
// is materialized from the arena on first sight.
func (in *Interner) internNode(kind value.Kind, ids []ID, v value.Value) ID {
	h := hashIDs(kind, ids)
	sh := &in.shards[h&shardMask]
	tag := uint32(h >> 32)
	sh.mu.Lock()
	slot, id := sh.probe(tag, func(cand ID) bool {
		e := in.entryOf(cand)
		return e.v.Kind() == kind && idsEqual(in.elemsOf(e.off, e.n), ids)
	})
	if id != 0 {
		sh.mu.Unlock()
		if in.global && v != nil {
			value.CacheInternID(v, uint32(id))
		}
		return id
	}
	if v == nil {
		v = in.materialize(kind, ids)
	}
	id, err := in.alloc(v, ids)
	if err != nil {
		sh.mu.Unlock()
		panic(err)
	}
	in.publish(sh, slot, tag, id)
	sh.mu.Unlock()
	if in.global {
		value.CacheInternID(v, uint32(id))
	}
	return id
}

// materialize builds the value for a node interned from IDs alone.
func (in *Interner) materialize(kind value.Kind, ids []ID) value.Value {
	elems := make([]value.Value, len(ids))
	for i, id := range ids {
		elems[i] = in.Lookup(id)
	}
	if kind == value.KindTuple {
		return value.NewTuple(elems...)
	}
	// ids are already in canonical set order; NewSet just re-verifies that.
	return value.NewSet(elems...)
}

// alloc appends a fully-written entry to the arena, copying ids into the
// child arena (callers may reuse ids), and returns its new ID. Callers
// publish the ID (a slot store under the shard mutex, or an atomic
// cache-cell store) only after alloc returns, which is what makes lock-free
// Lookup and Elems safe. At a limit alloc changes nothing and returns an
// error wrapping ErrExhausted.
func (in *Interner) alloc(v value.Value, ids []ID) (ID, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.next.Load()
	if i >= in.maxIDs {
		return 0, fmt.Errorf("%w: all %d IDs issued", ErrExhausted, i)
	}
	off, n := uint32(0), uint32(len(ids))
	switch {
	case n == 0:
	case n > childChunkSize:
		// Appending in place is safe: readers holding the old header never
		// index past its length, and the new header is stored before the ID
		// is published.
		wide := *in.wide.Load()
		off = uint32(len(wide))
		wide = append(wide, append([]ID(nil), ids...))
		in.wide.Store(&wide)
		in.bytes.Add(int64(n) * 4)
	default:
		start := uint64(in.childNext)
		if rest := childChunkSize - start&childChunkMask; uint64(n) > rest {
			start += rest // the node would straddle a chunk boundary: start the next chunk
		}
		if start+uint64(n) > uint64(in.maxChildren) {
			return 0, fmt.Errorf("%w: child arena full at offset %d", ErrExhausted, in.childNext)
		}
		off = uint32(start)
		children := *in.children.Load()
		ci := int(off >> childChunkBits)
		if ci >= len(children) {
			nc := make([]*childChunk, ci+1)
			copy(nc, children)
			nc[ci] = new(childChunk)
			in.children.Store(&nc)
			in.bytes.Add(childChunkSize * 4)
			children = nc
		}
		copy(children[ci][off&childChunkMask:], ids)
		in.childNext = off + n
	}
	ci, ei := int(i>>chunkBits), i&chunkMask
	dir := *in.dir.Load()
	if ci >= len(dir) {
		nd := make([]*chunk, ci+1)
		copy(nd, dir)
		nd[ci] = &chunk{}
		in.dir.Store(&nd)
		in.bytes.Add(chunkSize * entryBytes)
		dir = nd
	}
	dir[ci].entries[ei] = entry{v: v, off: off, n: n}
	in.next.Store(i + 1)
	return ID(i + 1), nil
}

// publish stores id in the slot a failed probe returned, accounting for
// any table growth.
func (in *Interner) publish(sh *shard, slot, tag uint32, id ID) {
	before := len(sh.slots)
	sh.insert(slot, tag, id)
	if grown := len(sh.slots) - before; grown > 0 {
		in.bytes.Add(int64(grown) * 8)
	}
}

// probe walks tag's probe path from its home slot. It returns the ID of the
// first slot whose tag matches and whose ID satisfies match, or 0 and the
// empty slot ending the path, which is where an insert of tag belongs.
func (sh *shard) probe(tag uint32, match func(ID) bool) (slot uint32, id ID) {
	mask := uint32(len(sh.slots) - 1)
	for slot = tag & mask; ; slot = (slot + 1) & mask {
		s := sh.slots[slot]
		if s == 0 {
			return slot, 0
		}
		if uint32(s>>32) == tag && match(ID(s)) {
			return slot, ID(s)
		}
	}
}

// insert claims slot, as returned by a failed probe for tag, for id, and
// doubles the table once it is more than 3/4 full so probe paths stay short.
func (sh *shard) insert(slot, tag uint32, id ID) {
	sh.slots[slot] = uint64(tag)<<32 | uint64(id)
	sh.used++
	if sh.used*4 > len(sh.slots)*3 {
		sh.grow()
	}
}

// grow doubles the table and re-places every slot from its stored tag; the
// values themselves are never rehashed.
func (sh *shard) grow() {
	old := sh.slots
	sh.slots = make([]uint64, 2*len(old))
	mask := uint32(len(sh.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		slot := uint32(s>>32) & mask
		for sh.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		sh.slots[slot] = s
	}
}

func idsEqual(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mix64 is the SplitMix64 finalizer: a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Kind seeds keep hashes of different kinds decorrelated even for equal
// payload bits (Int(1) vs an ID sequence [1]).
const (
	seedBool   = 0x42085931bca93457
	seedInt    = 0x9e3779b97f4a7c15
	seedString = 0xc2b2ae3d27d4eb4f
	seedNode   = 0x2545f4914f6cdd1d
)

func hashBool(b bool) uint64 {
	if b {
		return mix64(seedBool ^ 1)
	}
	return mix64(seedBool)
}

func hashInt(i int64) uint64 { return mix64(seedInt ^ uint64(i)) }

// hashString is FNV-1a folded through mix64.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(seedString ^ h)
}

func hashIDs(kind value.Kind, ids []ID) uint64 {
	h := mix64(seedNode ^ uint64(kind))
	for _, id := range ids {
		h = mix64(h ^ uint64(id))
	}
	return mix64(h ^ uint64(len(ids)))
}
