// Package machine implements the simulated IA-32 subset machine that stands
// in for the paper's real Pentium hardware: a flat 32-bit address space, the
// architectural register and eflags state, an interpreter for fully decoded
// instructions, pluggable Pentium 3 / Pentium 4 cost profiles, and branch
// predictor models (bimodal conditional predictor, return-address stack,
// last-target indirect predictor).
//
// Execution time is accounted in ticks (quarter cycles), so that sub-cycle
// cost differences — such as inc versus add 1 on different
// microarchitectures — can be expressed with integer arithmetic. All of the
// overheads the paper analyses (context switches, hashtable lookups,
// indirect-branch mispredictions, taken-branch layout penalties) arise from
// instructions this machine actually executes; see DESIGN.md for the short
// list of modeled constants.
package machine

import (
	"encoding/binary"
	"fmt"
)

// Addr is a 32-bit simulated machine address.
type Addr = uint32

const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageCount = 1 << (32 - pageShift)

	// chunkShift sizes the decode tables: a page keeps one table of
	// decoded instructions per 256-byte chunk that has held code, so a
	// page with a few fragments in it does not pay for 64 KiB of slots.
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkCount = pageSize >> chunkShift

	// maxInstLen bounds an instruction's length: the decoder reads at most
	// this many bytes (Machine.decode's fetch window), so a write can only
	// overlap decodes that start fewer than maxInstLen bytes before it.
	maxInstLen = 16
)

// PageSize is the granularity of page-level write-generation tracking (see
// Gen); it is the unit at which embedders can detect code modification.
const PageSize Addr = pageSize

type page struct {
	// code holds the page's decoded instructions: code[c][o] is the decode
	// of the instruction starting at offset o of chunk c, or nil. The chunk
	// tables are allocated the first time code in them is fetched, and
	// every write drops the decodes that overlap the written bytes, so a
	// present decode always matches memory. It is the page's only pointer
	// and comes first, so the GC never scans bytes.
	code  *[chunkCount]*codeChunk
	bytes [pageSize]byte
	// gen counts writes to the page; embedders (fragment staleness checks
	// in the runtime) use it to detect self-modifying code.
	gen uint32
	// prot is the page's access-restriction bits (ProtNoRead/ProtNoWrite).
	// The zero value means fully accessible, so untouched pages stay
	// permissive and the permission check stays off the fast path of runs
	// that never call Protect.
	prot uint8
}

// codeChunk is the decode table of one 256-byte chunk, indexed by the
// instruction's start offset in the chunk.
type codeChunk [chunkSize]*cachedInst

// Page permission restriction bits for Protect. They are restrictions, not
// grants: a zero value (the default for every page) allows everything.
const (
	ProtNoRead  uint8 = 1 << iota // data reads fault with #PF
	ProtNoWrite                   // writes fault with #PF
)

// Memory is a sparse paged 32-bit address space. Pages are allocated on
// first touch; reads of untouched memory return zero after allocating.
// Pages are fully accessible unless restricted with Protect, in which case a
// violating access panics with a *Fault (#PF). Every instruction makes its
// faulting accesses before it commits anything, so the machine delivers the
// panic as a precise synchronous fault (see execThunk).
type Memory struct {
	pages [pageCount]*page

	// protCount is the number of pages with nonzero prot; access paths
	// check permissions only when it is nonzero.
	protCount int

	// drops counts the decodes dropped by writes (dropCode). The block
	// runner ends a run when it changes, so a store into running code is
	// seen at the next instruction boundary.
	drops uint64

	// free is the list of dropped decodes, linked through succ, that
	// Machine.decode reuses before it allocates. A decode on it may still
	// be executing (a store into its own bytes); the block runner reads
	// nothing but drops after such a store, and nothing decodes inside a
	// thunk, so it is reset only when it is reused.
	free *cachedInst
}

// Protect sets the restriction bits for every page overlapping [lo, hi).
// Pass 0 to restore full access.
func (m *Memory) Protect(lo, hi Addr, prot uint8) {
	if hi <= lo {
		return
	}
	for pi := lo >> pageShift; pi <= (hi-1)>>pageShift; pi++ {
		p := m.pages[pi]
		if p == nil {
			if prot == 0 {
				continue
			}
			p = &page{}
			m.pages[pi] = p
		}
		if (p.prot == 0) != (prot == 0) {
			if prot == 0 {
				m.protCount--
			} else {
				m.protCount++
			}
		}
		p.prot = prot
		if pi == 0xFFFF {
			break // pi+1 would wrap
		}
	}
}

// protOK reports whether an access to a is permitted (write or read).
func (m *Memory) protOK(a Addr, write bool) bool {
	p := m.pages[a>>pageShift]
	if p == nil || p.prot == 0 {
		return true
	}
	if write {
		return p.prot&ProtNoWrite == 0
	}
	return p.prot&ProtNoRead == 0
}

// protCheck panics with a #PF *Fault if the access to a is not permitted.
// Only called when protCount != 0.
func (m *Memory) protCheck(a Addr, write bool) {
	if !m.protOK(a, write) {
		panic(&Fault{Kind: FaultPage, Addr: a, Write: write})
	}
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

func (m *Memory) pageFor(a Addr) *page {
	p := m.pages[a>>pageShift]
	if p == nil {
		p = &page{}
		m.pages[a>>pageShift] = p
	}
	return p
}

// Read8 reads one byte.
func (m *Memory) Read8(a Addr) uint8 {
	if m.protCount != 0 {
		m.protCheck(a, false)
	}
	return m.pageFor(a).bytes[a&(pageSize-1)]
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(a Addr) uint16 {
	if a&(pageSize-1) <= pageSize-2 {
		if m.protCount != 0 {
			m.protCheck(a, false)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		return uint16(p.bytes[o]) | uint16(p.bytes[o+1])<<8
	}
	return uint16(m.Read8(a)) | uint16(m.Read8(a+1))<<8
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(a Addr) uint32 {
	if a&(pageSize-1) <= pageSize-4 {
		if m.protCount != 0 {
			m.protCheck(a, false)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		return uint32(p.bytes[o]) | uint32(p.bytes[o+1])<<8 |
			uint32(p.bytes[o+2])<<16 | uint32(p.bytes[o+3])<<24
	}
	return uint32(m.Read16(a)) | uint32(m.Read16(a+2))<<16
}

// Write8 writes one byte.
func (m *Memory) Write8(a Addr, v uint8) {
	if m.protCount != 0 {
		m.protCheck(a, true)
	}
	p := m.pageFor(a)
	o := a & (pageSize - 1)
	p.bytes[o] = v
	m.wrote(p, a, 1)
}

// Write16 writes a little-endian 16-bit value. The in-page fast path bumps
// the page generation once, not once per byte.
func (m *Memory) Write16(a Addr, v uint16) {
	if a&(pageSize-1) <= pageSize-2 {
		if m.protCount != 0 {
			m.protCheck(a, true)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		p.bytes[o] = uint8(v)
		p.bytes[o+1] = uint8(v >> 8)
		m.wrote(p, a, 2)
		return
	}
	if m.protCount != 0 {
		m.protCheckWrite(a, 2)
	}
	m.Write8(a, uint8(v))
	m.Write8(a+1, uint8(v>>8))
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(a Addr, v uint32) {
	if a&(pageSize-1) <= pageSize-4 {
		if m.protCount != 0 {
			m.protCheck(a, true)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		p.bytes[o] = byte(v)
		p.bytes[o+1] = byte(v >> 8)
		p.bytes[o+2] = byte(v >> 16)
		p.bytes[o+3] = byte(v >> 24)
		m.wrote(p, a, 4)
		return
	}
	if m.protCount != 0 {
		m.protCheckWrite(a, 4)
	}
	m.Write16(a, uint16(v))
	m.Write16(a+2, uint16(v>>16))
}

// WriteBytes copies b into memory starting at a.
func (m *Memory) WriteBytes(a Addr, b []byte) {
	if m.protCount != 0 {
		m.protCheckWrite(a, len(b))
	}
	for len(b) > 0 {
		p := m.pageFor(a)
		n := copy(p.bytes[a&(pageSize-1):], b)
		m.wrote(p, a, Addr(n))
		b = b[n:]
		a += Addr(n)
	}
}

// protCheckWrite checks every page an n-byte write at a touches before any
// byte is stored, so a write that faults on its second page leaves the
// first unchanged.
func (m *Memory) protCheckWrite(a Addr, n int) {
	if f := m.writeFault(a, n); f != nil {
		panic(f)
	}
}

// writeFault returns the #PF an n-byte write at a raises, or nil. The fault
// address is the first forbidden byte.
func (m *Memory) writeFault(a Addr, n int) *Fault {
	for i := 0; i < n; i += pageSize - int((a+Addr(i))&(pageSize-1)) {
		if b := a + Addr(i); !m.protOK(b, true) {
			return &Fault{Kind: FaultPage, Addr: b, Write: true}
		}
	}
	return nil
}

// wrote records that the n bytes at a, all in page p, were just written:
// it bumps the page generation and drops the decodes the bytes overlap.
// Only a page with a decode table can hold such bytes: a decode whose tail
// crosses into the next page gives that page a table too (see
// Machine.decode).
func (m *Memory) wrote(p *page, a, n Addr) {
	p.gen++
	if p.code != nil {
		m.dropCode(a, n)
	}
}

// dropCode drops exactly the decodes that overlap the n bytes written at
// a: every one starting in [a, a+n), and those starting up to maxInstLen-1
// bytes before a that are long enough to reach it. Only chunks that have a
// table are visited; the tables themselves stay for the next fetch. A
// dropped decode goes on the free list, and every link into it is cleared:
// links never leave their chunk, so those are the succ of decodes starting
// in the maxInstLen-1 slots before it in the same chunk. Each drop is
// counted for the block runner.
func (m *Memory) dropCode(a, n Addr) {
	const back = maxInstLen - 1
	s, left := a-back, n+back // slots [s, s+left) may hold overlapping decodes
	for {
		o := s & (pageSize - 1)
		k := pageSize - o // slots to the end of the page
		if p := m.pages[s>>pageShift]; p != nil && p.code != nil {
			k = chunkSize - o&(chunkSize-1) // slots to the end of the chunk
			if t := p.code[o>>chunkShift]; t != nil {
				lo := o & (chunkSize - 1)
				d := n + back - left // distance from a-back to s
				for i, ci := range t[lo : lo+min(k, left)] {
					if ci != nil && d+Addr(i)+Addr(ci.inst.Len) > back {
						at := lo + Addr(i)
						t[at] = nil
						for _, pred := range t[max(at, back)-back : at] {
							if pred != nil && pred.succ == ci {
								pred.succ = nil
							}
						}
						ci.succ, m.free = m.free, ci
						m.drops++
					}
				}
			}
		}
		if k >= left {
			return
		}
		s += k
		left -= k
	}
}

// ReadBytes copies n bytes starting at a into a fresh slice.
func (m *Memory) ReadBytes(a Addr, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		if m.protCount != 0 {
			m.protCheck(a+Addr(i), false)
		}
		p := m.pageFor(a + Addr(i))
		o := (a + Addr(i)) & (pageSize - 1)
		c := copy(out[i:], p.bytes[o:])
		i += c
	}
	return out
}

// Fetch fills buf with bytes starting at a (for instruction decode) and
// returns the slice. It avoids allocation for the common in-page case.
func (m *Memory) Fetch(a Addr, buf []byte) []byte {
	o := a & (pageSize - 1)
	p := m.pageFor(a)
	if int(o)+len(buf) <= pageSize {
		return p.bytes[o : int(o)+len(buf)]
	}
	for i := range buf {
		buf[i] = m.Read8(a + Addr(i))
	}
	return buf
}

// decoded returns the stored decode of the instruction starting at a, or
// nil.
func (m *Memory) decoded(a Addr) *cachedInst {
	if p := m.pages[a>>pageShift]; p != nil && p.code != nil {
		if t := p.code[a&(pageSize-1)>>chunkShift]; t != nil {
			return t[a&(chunkSize-1)]
		}
	}
	return nil
}

// codeSlot returns the decode-table slot of the instruction starting at a,
// allocating the page's and the chunk's tables on first use. The slot is
// nil until the machine stores a decode there, and again after any write
// overlapping that instruction's bytes.
func (m *Memory) codeSlot(a Addr) **cachedInst {
	p := m.pageFor(a)
	if p.code == nil {
		p.code = new([chunkCount]*codeChunk)
	}
	o := a & (pageSize - 1)
	t := p.code[o>>chunkShift]
	if t == nil {
		t = new(codeChunk)
		p.code[o>>chunkShift] = t
	}
	return &t[o&(chunkSize-1)]
}

// Gen returns the write-generation of the page containing a.
func (m *Memory) Gen(a Addr) uint32 {
	if p := m.pages[a>>pageShift]; p != nil {
		return p.gen
	}
	return 0
}

// Digest returns an FNV-1a checksum of the address range [lo, hi), covering
// every allocated page that overlaps it (untouched pages read as zero and
// are skipped, along with allocated pages whose overlap is all zero — so the
// digest is insensitive to whether a zero region was ever paged in). The
// differential tests use it to compare final application memory below the
// runtime-reserved region across cache configurations.
//
// The hash steps over little-endian 64-bit words, with a byte tail. Each
// step h = (h ^ w) * prime is a bijection of h for a given word and of the
// word for a given h, so two ranges that differ in any one word always
// digest differently.
func (m *Memory) Digest(lo, hi Addr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for pi := lo >> pageShift; pi <= (hi-1)>>pageShift; pi++ {
		p := m.pages[pi]
		if p == nil {
			continue
		}
		start := Addr(0)
		if base := pi << pageShift; base < lo {
			start = lo - base
		}
		end := Addr(pageSize)
		if base := pi << pageShift; base+pageSize > hi {
			end = hi - base
		}
		slice := p.bytes[start:end]
		if allZero(slice) {
			continue
		}
		// Fold the page's address in so identical content at different
		// addresses digests differently.
		for _, b := range [4]byte{byte(pi), byte(pi >> 8), byte(pi >> 16), byte(start)} {
			h = (h ^ uint64(b)) * prime64
		}
		words := len(slice) &^ 7
		for i := 0; i < words; i += 8 {
			h = (h ^ binary.LittleEndian.Uint64(slice[i:])) * prime64
		}
		for _, b := range slice[words:] {
			h = (h ^ uint64(b)) * prime64
		}
		if pi == 0xFFFF {
			break // pi+1 would wrap
		}
	}
	return h
}

// allZero reports whether every byte of b is zero, a word at a time.
func allZero(b []byte) bool {
	words := len(b) &^ 7
	for i := 0; i < words; i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	for _, c := range b[words:] {
		if c != 0 {
			return false
		}
	}
	return true
}

// String summarizes allocated pages (debugging aid).
func (m *Memory) String() string {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return fmt.Sprintf("Memory{%d pages, %d KiB}", n, n*pageSize/1024)
}
