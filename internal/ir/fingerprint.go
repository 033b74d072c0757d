package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint is a content hash of a module body. Two modules with equal
// fingerprints schedule identically: the hash covers everything the
// schedulers and the communication pass observe — slot layout, operation
// sequence, gate opcodes, rotation angles, operand slots, callee names,
// call argument ranges and repetition counts — and nothing they do not
// (module and register names). It is the content-addressed key of the
// evaluation engine's characterization cache, so structurally identical
// leaves (e.g. Shor's per-angle rotation blackboxes that decompose to
// the same gate sequence) share cached schedules.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Fingerprint computes the module's content hash: that of its expanded
// body, so a marked leaf hashes exactly as its inlined body would. It
// walks the expansion once; callers that need it repeatedly should
// memoize (the module itself does not, because passes mutate bodies in
// place).
//
// Fields are little-endian encoded into a stack buffer that is flushed
// into the digest a block at a time, so the digest sees a few large
// writes instead of one per 8-byte field. The byte stream is exactly
// that of per-field writes, so digests, cache keys and persisted records
// keyed by them are unchanged (TestFingerprintGolden). The buffer and
// its helpers stay local to this function: the digest is only known to
// be concrete here, and passing the buffer to it through a struct
// method would move both to the heap.
func (m *Module) Fingerprint() Fingerprint {
	h := sha256.New()
	var buf [512]byte
	n := 0
	u64 := func(v uint64) {
		if n+8 > len(buf) {
			h.Write(buf[:n])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	str := func(s string) {
		u64(uint64(len(s)))
		for len(s) > 0 {
			if n == len(buf) {
				h.Write(buf[:n])
				n = 0
			}
			c := copy(buf[n:], s)
			n += c
			s = s[c:]
		}
	}

	// Slot layout: parameter and local register sizes, in order. Register
	// names are cosmetic; sizes define the slot space.
	u64(uint64(len(m.Params)))
	for _, p := range m.Params {
		u64(uint64(p.Size))
	}
	u64(uint64(len(m.Locals)))
	for _, l := range m.Locals {
		u64(uint64(l.Size))
	}

	// The expanded body: its length, then each op over m's slots.
	u64(uint64(m.extent().ops))
	var scratch []int
	m.expand(nil, &scratch, func(op *Op, slots []int) {
		u64(uint64(op.Kind))
		u64(uint64(op.EffCount()))
		switch op.Kind {
		case GateOp:
			u64(uint64(op.Gate))
			u64(math.Float64bits(op.Angle))
			u64(uint64(len(op.Args)))
			for _, a := range op.Args {
				u64(uint64(slotAt(slots, a)))
			}
		case CallOp:
			str(op.Callee)
			u64(uint64(len(op.CallArgs)))
			for _, r := range op.CallArgs {
				u64(uint64(r.Start))
				u64(uint64(r.Len))
			}
		}
	})
	h.Write(buf[:n])

	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// Digests is one hashing pass over a program: every module's
// Fingerprint by name, and the program's Fingerprint built from them.
type Digests struct {
	Modules map[string]Fingerprint
	Program Fingerprint
}

// Digests hashes every module once. The program hash covers the entry
// name plus every module's (name, fingerprint) pair in definition
// order. Module names participate here — unlike in the per-module hash
// — because call ops reference callees by name, so two programs with
// identical bodies but re-wired call graphs must not collide. It is the
// dedup key of the service daemon's singleflight layer, and the module
// digests key its leaves, so a request hashes each body once.
func (p *Program) Digests() Digests {
	d := Digests{Modules: make(map[string]Fingerprint, len(p.Order))}
	h := sha256.New()
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	str(p.Entry)
	for _, name := range p.Order {
		str(name)
		f := p.Modules[name].Fingerprint()
		d.Modules[name] = f
		h.Write(f[:])
	}
	h.Sum(d.Program[:0])
	return d
}

// Fingerprint is the whole-program content hash (see Digests).
func (p *Program) Fingerprint() Fingerprint { return p.Digests().Program }
