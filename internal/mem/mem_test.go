package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("alloc %#x not 64-aligned", a)
	}
	b := m.Alloc(10, 64)
	if b <= a {
		t.Fatalf("allocations overlap: %#x then %#x", a, b)
	}
	if a == 0 || b == 0 {
		t.Fatal("address 0 must stay invalid")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	m := New(8192)
	m.Alloc(100000, 1)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(64, 8)
	src := []byte("hello rdma world")
	if err := m.Write(a, src); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(a, uint64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("got %q want %q", got, src)
	}
}

// TestBoundsErrors: bounds and nil-address checks fail every accessor
// with an *AccessError saying why, whatever the page layout, including
// at the end of a memory that is not a whole number of pages.
func TestBoundsErrors(t *testing.T) {
	m := New(3*pageSize + 100)
	end := m.Size()
	if _, err := m.U64(end - 8); err != nil {
		t.Fatalf("last word in bounds: %v", err)
	}
	if err := m.PutU64(end-8, 1); err != nil {
		t.Fatalf("last word in bounds: %v", err)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"U64 past end", func() error { _, err := m.U64(end - 7); return err }(), "out of bounds"},
		{"U64 at end", func() error { _, err := m.U64(end); return err }(), "out of bounds"},
		{"PutU64 past end", m.PutU64(end-4, 1), "out of bounds"},
		{"Read past end", func() error { _, err := m.Read(end-100, 101); return err }(), "out of bounds"},
		{"ReadInto past end", m.ReadInto(end-1, make([]byte, 2)), "out of bounds"},
		{"Write past end", m.Write(end-4, make([]byte, 8)), "out of bounds"},
		{"Write across pages past end", m.Write(end-pageSize, make([]byte, pageSize+1)), "out of bounds"},
		{"Write wrapping", m.Write(^uint64(0)-3, make([]byte, 8)), "out of bounds"},
		{"CAS past end", func() error { _, err := m.CompareAndSwap(end-2, 0, 1); return err }(), "out of bounds"},
		{"FetchAdd past end", func() error { _, err := m.FetchAdd(end, 1); return err }(), "out of bounds"},
		{"Register past end", func() error { _, err := m.Register(end-8, 9, RemoteRead); return err }(), "out of bounds"},
		{"nil Read", func() error { _, err := m.Read(0, 8); return err }(), "nil address"},
		{"nil PutU64", m.PutU64(0, 1), "nil address"},
	}
	for _, c := range cases {
		ae, ok := c.err.(*AccessError)
		if !ok {
			t.Errorf("%s: want *AccessError, got %T (%v)", c.name, c.err, c.err)
			continue
		}
		if ae.Why != c.want || ae.Error() == "" {
			t.Errorf("%s: got %q, want %q", c.name, ae.Error(), c.want)
		}
	}
}

func TestU64BigEndian(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(8, 8)
	if err := m.PutU64(a, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	raw, _ := m.Read(a, 8)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(raw, want) {
		t.Fatalf("not big-endian: %x", raw)
	}
	v, err := m.U64(a)
	if err != nil || v != 0x0102030405060708 {
		t.Fatalf("U64 = %#x, %v", v, err)
	}
}

func TestCompareAndSwap(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(8, 8)
	m.PutU64(a, 42)
	old, err := m.CompareAndSwap(a, 42, 99)
	if err != nil || old != 42 {
		t.Fatalf("CAS success: old=%d err=%v", old, err)
	}
	if v, _ := m.U64(a); v != 99 {
		t.Fatalf("value %d after successful CAS, want 99", v)
	}
	old, err = m.CompareAndSwap(a, 42, 7)
	if err != nil || old != 99 {
		t.Fatalf("CAS failure: old=%d err=%v", old, err)
	}
	if v, _ := m.U64(a); v != 99 {
		t.Fatalf("value %d after failed CAS, want unchanged 99", v)
	}
}

func TestFetchAddMaxMin(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(8, 8)
	m.PutU64(a, 10)
	if old, _ := m.FetchAdd(a, 5); old != 10 {
		t.Fatalf("FetchAdd old=%d", old)
	}
	if v, _ := m.U64(a); v != 15 {
		t.Fatalf("after add: %d", v)
	}
	if old, _ := m.Max(a, 100); old != 15 {
		t.Fatalf("Max old=%d", old)
	}
	if v, _ := m.U64(a); v != 100 {
		t.Fatalf("after max: %d", v)
	}
	m.Max(a, 5) // no-op
	if v, _ := m.U64(a); v != 100 {
		t.Fatalf("max should not lower: %d", v)
	}
	m.Min(a, 3)
	if v, _ := m.U64(a); v != 3 {
		t.Fatalf("after min: %d", v)
	}
}

func TestRegisterAndKeys(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(1024, 8)
	r, err := m.Register(a, 1024, RemoteRead|RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r.LKey == r.RKey {
		t.Fatal("lkey and rkey should differ")
	}
	if got := m.RegionForRKey(r.RKey); got != r {
		t.Fatal("rkey lookup failed")
	}
	if _, err := m.Register(uint64(m.Size()), 16, RemoteRead); err == nil {
		t.Fatal("out-of-bounds registration should fail")
	}
}

func TestCheckRemote(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(1024, 8)
	r, _ := m.Register(a, 1024, RemoteRead)
	if err := m.CheckRemote(a, 100, r.RKey, RemoteRead, "read"); err != nil {
		t.Fatalf("in-region read: %v", err)
	}
	if err := m.CheckRemote(a, 100, r.RKey, RemoteWrite, "write"); err == nil {
		t.Fatal("write without RemoteWrite should fail")
	}
	if err := m.CheckRemote(a+1000, 100, r.RKey, RemoteRead, "read"); err == nil {
		t.Fatal("range crossing region end should fail")
	}
	if err := m.CheckRemote(a, 8, 0xdeadbeef, RemoteRead, "read"); err == nil {
		t.Fatal("bad rkey should fail")
	}
	// rkey 0: any covering region
	if err := m.CheckRemote(a, 8, 0, RemoteRead, "read"); err != nil {
		t.Fatalf("rkey-0 covering check: %v", err)
	}
	if err := m.CheckRemote(a, 8, 0, RemoteAtomic, "atomic"); err == nil {
		t.Fatal("rkey-0 without atomic perm should fail")
	}
	m.Deregister(r)
	if err := m.CheckRemote(a, 8, 0, RemoteRead, "read"); err == nil {
		t.Fatal("deregistered region should not authorize")
	}
}

func TestRegionContains(t *testing.T) {
	r := &Region{Base: 100, Len: 50}
	if !r.Contains(100, 50) || !r.Contains(149, 1) {
		t.Fatal("edges should be contained")
	}
	if r.Contains(99, 1) || r.Contains(149, 2) || r.Contains(100, 51) {
		t.Fatal("out of range accepted")
	}
}

// Property: PutU64/U64 round-trips arbitrary values at arbitrary
// in-bounds addresses, including ones that straddle a page boundary,
// and leaves the bytes around the word untouched.
func TestU64RoundTripProperty(t *testing.T) {
	m := New(1 << 16)
	base := m.Alloc(3*pageSize, 8)
	f := func(off uint16, v uint64, straddle bool) bool {
		addr := base + uint64(off)%(3*pageSize-8)
		if straddle {
			addr = base + pageSize - 7 + uint64(off)%7
		}
		m.PutU64(addr-1, 0)
		m.PutU64(addr+1, 0)
		if err := m.PutU64(addr, v); err != nil {
			return false
		}
		got, err := m.U64(addr)
		if err != nil || got != v {
			return false
		}
		b, _ := m.Read(addr-1, 10)
		return b[0] == 0 && b[9] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CAS either swaps (old==cmp) or leaves memory unchanged,
// also on a word that straddles a page boundary.
func TestCASProperty(t *testing.T) {
	m := New(1 << 16)
	aligned := m.Alloc(8, 8)
	straddling := m.Alloc(2*pageSize, pageSize) + pageSize - 3
	f := func(initial, cmp, swap uint64, straddle bool) bool {
		addr := aligned
		if straddle {
			addr = straddling
		}
		m.PutU64(addr, initial)
		old, err := m.CompareAndSwap(addr, cmp, swap)
		if err != nil || old != initial {
			return false
		}
		now, _ := m.U64(addr)
		if initial == cmp {
			return now == swap
		}
		return now == initial
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Feed the generator's rarely drawn equal case explicitly.
	for _, straddle := range []bool{false, true} {
		if !f(7, 7, 9, straddle) {
			t.Fatalf("equal-compare CAS did not swap (straddle=%v)", straddle)
		}
	}
}

// TestPageStraddlingAccessors runs every accessor on seeded random
// ranges around page boundaries and checks each result against a flat
// byte-slice model of the same memory.
func TestPageStraddlingAccessors(t *testing.T) {
	const size = 8 * pageSize
	m := New(size)
	model := make([]byte, size)
	r := rand.New(rand.NewSource(1))
	// addrNear returns an address within 16 bytes of a page boundary
	// such that [addr, addr+n) fits in memory and avoids address 0.
	addrNear := func(n uint64) uint64 {
		boundary := uint64(1+r.Intn(size/pageSize-2)) * pageSize
		return boundary - n + 1 + uint64(r.Intn(int(n)+15))
	}
	be, putBE := binary.BigEndian.Uint64, binary.BigEndian.PutUint64
	for i := 0; i < 4000; i++ {
		switch op := r.Intn(6); op {
		case 0: // Write
			n := uint64(1 + r.Intn(2*pageSize))
			addr := addrNear(min(n, 64))
			if addr+n > size {
				addr = size - n
			}
			src := make([]byte, n)
			r.Read(src)
			if err := m.Write(addr, src); err != nil {
				t.Fatalf("step %d: Write(%#x, %d): %v", i, addr, n, err)
			}
			copy(model[addr:], src)
		case 1: // Read and ReadInto
			n := uint64(1 + r.Intn(pageSize+64))
			addr := addrNear(min(n, 64))
			if addr+n > size {
				addr = size - n
			}
			got, err := m.Read(addr, n)
			if err != nil || !bytes.Equal(got, model[addr:addr+n]) {
				t.Fatalf("step %d: Read(%#x, %d) mismatch (err %v)", i, addr, n, err)
			}
			dst := make([]byte, n)
			for j := range dst {
				dst[j] = 0xa5 // stale contents must be overwritten, zeros included
			}
			if err := m.ReadInto(addr, dst); err != nil || !bytes.Equal(dst, model[addr:addr+n]) {
				t.Fatalf("step %d: ReadInto(%#x, %d) mismatch (err %v)", i, addr, n, err)
			}
		case 2: // U64
			addr := addrNear(8)
			v, err := m.U64(addr)
			if err != nil || v != be(model[addr:addr+8]) {
				t.Fatalf("step %d: U64(%#x) = %#x, want %#x (err %v)", i, addr, v, be(model[addr:addr+8]), err)
			}
		case 3: // PutU64
			addr, v := addrNear(8), r.Uint64()
			if err := m.PutU64(addr, v); err != nil {
				t.Fatalf("step %d: PutU64(%#x): %v", i, addr, err)
			}
			putBE(model[addr:addr+8], v)
		case 4: // CompareAndSwap, hitting and missing
			addr := addrNear(8)
			cur := be(model[addr : addr+8])
			cmp := cur
			if r.Intn(2) == 0 {
				cmp = r.Uint64()
			}
			swap := r.Uint64()
			old, err := m.CompareAndSwap(addr, cmp, swap)
			if err != nil || old != cur {
				t.Fatalf("step %d: CAS(%#x) old %#x, want %#x (err %v)", i, addr, old, cur, err)
			}
			if cmp == cur {
				putBE(model[addr:addr+8], swap)
			}
		case 5: // FetchAdd
			addr, d := addrNear(8), r.Uint64()
			cur := be(model[addr : addr+8])
			old, err := m.FetchAdd(addr, d)
			if err != nil || old != cur {
				t.Fatalf("step %d: FetchAdd(%#x) old %#x, want %#x (err %v)", i, addr, old, cur, err)
			}
			putBE(model[addr:addr+8], cur+d)
		}
	}
	all, err := m.Read(1, size-1)
	if err != nil || !bytes.Equal(all, model[1:]) {
		t.Fatalf("final memory differs from the model (err %v)", err)
	}
}

// TestUntouchedMemoryReadsZero: pages never written read as zeros
// through every read accessor, including ranges that run from a
// written page into an untouched one.
func TestUntouchedMemoryReadsZero(t *testing.T) {
	m := New(4 * pageSize)
	if v, err := m.U64(2*pageSize + 16); err != nil || v != 0 {
		t.Fatalf("untouched U64 = %#x, %v", v, err)
	}
	if v, err := m.U64(2*pageSize - 4); err != nil || v != 0 {
		t.Fatalf("untouched straddling U64 = %#x, %v", v, err)
	}
	if err := m.PutU64(pageSize-8, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(pageSize-8, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("read across into an untouched page: %x", got)
	}
	dst := bytes.Repeat([]byte{0xa5}, 32)
	if err := m.ReadInto(3*pageSize-16, dst); err != nil || !bytes.Equal(dst, make([]byte, 32)) {
		t.Fatalf("ReadInto of untouched pages: %x, %v", dst, err)
	}
}

// TestNewIsLazy: memory size is a cap, not a cost. A 1 GiB memory
// allocates well under 1 MiB up front, and a write touches one page.
func TestNewIsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(1 << 30)
	if err := m.PutU64(m.Size()-8, 42); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("New(1<<30) plus one write allocated %d bytes, want < 1 MiB", grew)
	}
	if v, _ := m.U64(m.Size() - 8); v != 42 {
		t.Fatalf("read back %d", v)
	}
	runtime.KeepAlive(m)
}

// BenchmarkMemReadWrite measures one 64-byte Write plus ReadInto, the
// size of a WQE, within a page and across a page boundary.
func BenchmarkMemReadWrite(b *testing.B) {
	for _, c := range []struct {
		name string
		off  uint64
	}{{"64B", 128}, {"64B-straddle", pageSize - 32}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			m := New(1 << 20)
			addr := m.Alloc(2*pageSize, pageSize) + c.off
			var src, dst [64]byte
			for i := 0; i < b.N; i++ {
				src[0] = byte(i)
				m.Write(addr, src[:])
				m.ReadInto(addr, dst[:])
			}
		})
	}
}
