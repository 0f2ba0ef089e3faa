// Package mem simulates a node's byte-addressable host memory together
// with the RDMA memory-region (MR) machinery: registration, lkeys/rkeys
// and permission checks. RedN work queues live in this memory as plain
// bytes, which is what makes self-modifying RDMA programs possible —
// verbs can target the WQEs of other verbs.
//
// All multi-byte values are big-endian. The paper modifies Memcached's
// buckets to store addresses in big endian "to match the format used by
// the WR attributes"; we adopt the same convention throughout.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Perm is an MR access-permission bitmask.
type Perm uint32

// Access permissions, mirroring ibv_access_flags.
const (
	LocalRead Perm = 1 << iota // always implied in real verbs; explicit here
	LocalWrite
	RemoteRead
	RemoteWrite
	RemoteAtomic
)

// RemoteAll grants remote read, write and atomic access.
const RemoteAll = RemoteRead | RemoteWrite | RemoteAtomic

// Region is a registered memory region.
type Region struct {
	Base uint64
	Len  uint64
	LKey uint32
	RKey uint32
	Perm Perm
}

// Contains reports whether [addr, addr+n) lies inside the region.
func (r *Region) Contains(addr, n uint64) bool {
	return addr >= r.Base && addr+n >= addr && addr+n <= r.Base+r.Len
}

// AccessError describes a failed permission or bounds check. It maps to
// the RNIC completing a work request with a protection error status.
type AccessError struct {
	Addr uint64
	Len  uint64
	Op   string
	Why  string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s of %d bytes at %#x denied: %s", e.Op, e.Len, e.Addr, e.Why)
}

// Memory is one node's simulated physical memory plus its MR table and
// a bump allocator. Address 0 is reserved as invalid; allocations start
// at one page.
//
// Memory is page-lazy: it is held as pageSize-byte pages that stay nil
// until first written, and a nil page reads as zeros. The configured
// size is a bound on addresses, not an up-front allocation.
type Memory struct {
	dir     []*chunk // chunkPages pages per entry; nil until first written
	size    uint64
	regions []*Region
	nextKey uint32
	next    uint64 // bump allocator cursor
}

const (
	pageShift  = 12
	pageSize   = 1 << pageShift
	chunkShift = 9 // log2 of pages per directory chunk (2 MiB of memory)
	chunkPages = 1 << chunkShift
	chunkBytes = pageSize * chunkPages
)

type page [pageSize]byte

type chunk [chunkPages]*page

// zeroPage is what copyOut reads for a page never written.
var zeroPage page

// New returns a memory of the given size in bytes.
func New(size uint64) *Memory {
	return &Memory{
		dir:     make([]*chunk, (size+chunkBytes-1)/chunkBytes),
		size:    size,
		nextKey: 1,
		next:    pageSize,
	}
}

// Size returns total memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// page returns the page holding addr, or nil when nothing has been
// written to it yet. addr must be in bounds.
func (m *Memory) page(addr uint64) *page {
	c := m.dir[addr>>(pageShift+chunkShift)]
	if c == nil {
		return nil
	}
	return c[(addr>>pageShift)&(chunkPages-1)]
}

// writablePage returns the page holding addr, allocating it (zeroed)
// on first use. addr must be in bounds.
func (m *Memory) writablePage(addr uint64) *page {
	ci := addr >> (pageShift + chunkShift)
	c := m.dir[ci]
	if c == nil {
		c = new(chunk)
		m.dir[ci] = c
	}
	pi := (addr >> pageShift) & (chunkPages - 1)
	p := c[pi]
	if p == nil {
		p = new(page)
		c[pi] = p
	}
	return p
}

// copyOut fills dst from memory at addr, one page at a time; untouched
// pages read as zeros. The range must be in bounds.
func (m *Memory) copyOut(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		var n int
		if p := m.page(addr); p != nil {
			n = copy(dst, p[off:])
		} else {
			n = copy(dst, zeroPage[off:])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// copyIn writes src into memory at addr, one page at a time. The range
// must be in bounds.
func (m *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.writablePage(addr)[addr&(pageSize-1):], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Alloc reserves size bytes with the given alignment (power of two, or
// 0/1 for none) and returns the base address. It panics when memory is
// exhausted: simulation configs size memory up front.
func (m *Memory) Alloc(size, align uint64) uint64 {
	if align > 1 {
		m.next = (m.next + align - 1) &^ (align - 1)
	}
	base := m.next
	m.next += size
	if m.next > m.size {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d more bytes of %d)", size, m.size))
	}
	return base
}

// Register registers [base, base+n) as an MR with the given permissions
// and returns it. Registration never fails for in-bounds ranges.
func (m *Memory) Register(base, n uint64, perm Perm) (*Region, error) {
	if base+n < base || base+n > m.size {
		return nil, &AccessError{Addr: base, Len: n, Op: "register", Why: "out of bounds"}
	}
	r := &Region{Base: base, Len: n, LKey: m.nextKey, RKey: m.nextKey | 0x80000000, Perm: perm}
	m.nextKey++
	m.regions = append(m.regions, r)
	return r, nil
}

// Deregister removes a region; subsequent keyed access through it fails.
func (m *Memory) Deregister(r *Region) {
	for i, reg := range m.regions {
		if reg == r {
			m.regions = append(m.regions[:i], m.regions[i+1:]...)
			return
		}
	}
}

// RegionForRKey resolves an rkey to its region.
func (m *Memory) RegionForRKey(rkey uint32) *Region {
	for _, r := range m.regions {
		if r.RKey == rkey {
			return r
		}
	}
	return nil
}

// CheckRemote validates a remote access of n bytes at addr under rkey
// needing perm. rkey 0 is a simulator convenience meaning "any region
// that covers the range and grants perm" (the wrapper library in the
// paper similarly hides key plumbing from offload authors).
func (m *Memory) CheckRemote(addr, n uint64, rkey uint32, perm Perm, op string) error {
	if rkey != 0 {
		r := m.RegionForRKey(rkey)
		if r == nil {
			return &AccessError{Addr: addr, Len: n, Op: op, Why: "bad rkey"}
		}
		if !r.Contains(addr, n) {
			return &AccessError{Addr: addr, Len: n, Op: op, Why: "outside region"}
		}
		if r.Perm&perm != perm {
			return &AccessError{Addr: addr, Len: n, Op: op, Why: "permission denied"}
		}
		return nil
	}
	for _, r := range m.regions {
		if r.Contains(addr, n) && r.Perm&perm == perm {
			return nil
		}
	}
	return &AccessError{Addr: addr, Len: n, Op: op, Why: "no covering region"}
}

func (m *Memory) bounds(addr, n uint64, op string) error {
	if addr == 0 {
		return &AccessError{Addr: addr, Len: n, Op: op, Why: "nil address"}
	}
	if addr+n < addr || addr+n > m.size {
		return &AccessError{Addr: addr, Len: n, Op: op, Why: "out of bounds"}
	}
	return nil
}

// Read copies n bytes at addr into a fresh slice.
func (m *Memory) Read(addr, n uint64) ([]byte, error) {
	if err := m.bounds(addr, n, "read"); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	m.copyOut(addr, out)
	return out, nil
}

// ReadInto copies len(dst) bytes at addr into dst.
func (m *Memory) ReadInto(addr uint64, dst []byte) error {
	n := uint64(len(dst))
	if err := m.bounds(addr, n, "read"); err != nil {
		return err
	}
	m.copyOut(addr, dst)
	return nil
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr uint64, src []byte) error {
	n := uint64(len(src))
	if err := m.bounds(addr, n, "write"); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// U64 reads a big-endian uint64 at addr.
func (m *Memory) U64(addr uint64) (uint64, error) {
	if err := m.bounds(addr, 8, "read"); err != nil {
		return 0, err
	}
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		if p := m.page(addr); p != nil {
			return binary.BigEndian.Uint64(p[off:]), nil
		}
		return 0, nil
	}
	var b [8]byte
	m.copyOut(addr, b[:])
	return binary.BigEndian.Uint64(b[:]), nil
}

// PutU64 writes a big-endian uint64 at addr.
func (m *Memory) PutU64(addr uint64, v uint64) error {
	if err := m.bounds(addr, 8, "write"); err != nil {
		return err
	}
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		binary.BigEndian.PutUint64(m.writablePage(addr)[off:], v)
		return nil
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	m.copyIn(addr, b[:])
	return nil
}

// CompareAndSwap atomically (in virtual time; the engine is single
// threaded) compares the big-endian uint64 at addr with old and, when
// equal, stores new. It returns the original value.
func (m *Memory) CompareAndSwap(addr, old, new uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if cur == old {
		if err := m.PutU64(addr, new); err != nil {
			return 0, err
		}
	}
	return cur, nil
}

// FetchAdd atomically adds delta to the big-endian uint64 at addr and
// returns the original value.
func (m *Memory) FetchAdd(addr, delta uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if err := m.PutU64(addr, cur+delta); err != nil {
		return 0, err
	}
	return cur, nil
}

// Max stores max(cur, v) at addr (a Mellanox vendor Calc verb) and
// returns the original value.
func (m *Memory) Max(addr, v uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if v > cur {
		if err := m.PutU64(addr, v); err != nil {
			return 0, err
		}
	}
	return cur, nil
}

// Min stores min(cur, v) at addr and returns the original value.
func (m *Memory) Min(addr, v uint64) (uint64, error) {
	cur, err := m.U64(addr)
	if err != nil {
		return 0, err
	}
	if v < cur {
		if err := m.PutU64(addr, v); err != nil {
			return 0, err
		}
	}
	return cur, nil
}
