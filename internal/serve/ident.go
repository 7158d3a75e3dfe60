package serve

// Request identity (DESIGN §7): an (experiment, assignment) pair is named
// once — ParseParams -> ResolveParams -> CacheKey — and interned in one
// bounded table whose lookup key is the entry's own bytes in the A21B frame,
// so neither side of the hop parses a name it has seen. The table is a pure
// memo over the start-up registry, so a process's engines and routers share it.

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// Identity is one interned request name: immutable, obtainable only from
// Intern and IdentOf, its Params and Wire shared read-only by its requests.
type Identity struct {
	id string
	// key is the engine's cache key — or, when the pair does not resolve
	// (err wraps ErrUnknownExperiment or ErrBadParams: the engine's answer),
	// the ad-hoc "id?a=1&b=2" form, so its owner can still be found.
	key string
	err error
	// params is the schema-resolved assignment (nil for a bare ID); the
	// assignment as parsed when err is set.
	params core.Params
	hash   uint64 // cluster.HashString(key): the ring position routers place by
	wire   []byte // the assignment as a frame's params run, as first spelled
	look   uint64 // identFind's hash of (id, wire)
}

// The accessors return the fields documented above.
func (i *Identity) ID() string          { return i.id }
func (i *Identity) Key() string         { return i.key }
func (i *Identity) Err() error          { return i.err }
func (i *Identity) Params() core.Params { return i.params }
func (i *Identity) Hash() uint64        { return i.hash }
func (i *Identity) Wire() []byte        { return i.wire }

// identCap bounds the table's rows and identMaxBytes a row's lookup key
// (IDs and assignments arrive from clients): past either, a pair is derived
// per request and not stored.
const (
	identCap      = 8192
	identMaxBytes = 256
)

// identSlots is an insert-only open-addressed table, at most half full: a
// lookup is a hash and a few atomic loads (no lock, no shared write), an
// insert one CAS.
var (
	identSeed  = maphash.MakeSeed()
	identCount atomic.Int64
	identSlots [2 * identCap]atomic.Pointer[Identity]
)

// identFind looks a pair up by its bytes, returning its row (nil when it has
// none, or is too long for one) and its hash. Bytes are compared exactly: a
// different spelling is a different row with the same key, never a wrong key.
func identFind[S string | []byte](id S, run []byte) (*Identity, uint64) {
	if len(id)+len(run) > identMaxBytes {
		return nil, 0
	}
	look := maphash.Bytes(identSeed, run)
	for i := 0; i < len(id); i++ {
		look = (look ^ uint64(id[i])) * 1099511628211 // FNV-1a's step: IDs are a few bytes
	}
	for s := look; ; s++ {
		p := identSlots[s%uint64(len(identSlots))].Load()
		if p == nil || (p.look == look && p.id == string(id) && bytes.Equal(p.wire, run)) {
			return p, look
		}
	}
}

// identStore interns ident unless the table is at its cap, returning the
// row a concurrent caller landed first when there is one.
func identStore(ident *Identity) *Identity {
	if identCount.Add(1) > identCap { // a row of the budget first: the table never passes the cap
		identCount.Add(-1)
		return ident
	}
	for s := ident.look; ; s++ {
		slot := &identSlots[s%uint64(len(identSlots))]
		if slot.CompareAndSwap(nil, ident) {
			return ident
		}
		if p := slot.Load(); p.look == ident.look && p.id == ident.id && bytes.Equal(p.wire, ident.wire) {
			identCount.Add(-1)
			return p
		}
	}
}

// Intern returns the identity of one request-frame entry, looked up by its
// own bytes (httpapi.BatchWalker's ID and Run; neither is retained). The
// error is an assignment that does not parse: no identity is built for it.
func Intern(id, run []byte) (*Identity, error) {
	ident, look := identFind(id, run)
	if ident != nil {
		return ident, nil
	}
	assignments, err := httpapi.ParamsOfRun(run)
	if err != nil {
		return nil, err
	}
	p, err := core.ParseParams(assignments)
	if err != nil {
		return nil, err
	}
	return newIdentity(look, string(id), p, bytes.Clone(run)), nil
}

// IdentOf is Intern for callers holding a parsed assignment: the map is
// rendered canonically (sorted names, shortest round-trip floats — the
// run its Assignments() would encode to) into a stack buffer and looked
// up in the same table, so a hit allocates nothing.
func IdentOf(id string, p core.Params) *Identity {
	var names [8]string
	sorted, trimmed := names[:0], true
	for name := range p {
		sorted = append(sorted, name)
		trimmed = trimmed && strings.TrimSpace(name) == name // ParseParams trims: an Intern row " f=1" resolved "f"
	}
	slices.Sort(sorted)
	var scratch [96]byte
	run := binary.AppendUvarint(scratch[:0], uint64(len(sorted)))
	for _, name := range sorted {
		var num [32]byte
		v := num[:0]
		if f := p[name]; f > -1e6 && f < 1e6 && f != 0 && f == float64(int64(f)) {
			v = strconv.AppendInt(v, int64(f), 10) // byte-identical to 'g' for these, and faster
		} else {
			v = strconv.AppendFloat(v, f, 'g', -1, 64)
		}
		run = binary.AppendUvarint(run, uint64(len(name)+1+len(v)))
		run = append(append(append(run, name...), '='), v...)
	}
	ident, look := identFind(id, run)
	if ident != nil && trimmed {
		return ident
	}
	return newIdentity(look, id, p, bytes.Clone(run))
}

// newIdentity derives a pair's identity by the engine's own resolution and
// interns it when it resolves and is short enough to have a row.
func newIdentity(look uint64, id string, p core.Params, wire []byte) *Identity {
	ident := &Identity{id: id, wire: wire, look: look}
	ident.key, ident.params, ident.err = resolveKey(id, p)
	if ident.err != nil {
		ident.key, ident.params = id+"?"+strings.Join(p.Assignments(), "&"), p
	} else if len(p) > 0 && len(p) == len(ident.params) { // p was complete: resolveKey returned it
		ident.params = maps.Clone(p)
	}
	ident.hash = cluster.HashString(ident.key)
	if ident.err != nil || len(id)+len(wire) > identMaxBytes {
		return ident
	}
	return identStore(ident)
}
