// Fixture for the resetcomplete analyzer: pass, fail, and
// suppression cases in one package.
package rc

// Good resets every field: direct assignment, reslicing, clear.
type Good struct {
	a int
	b []int
	m map[string]int
}

func (g *Good) Reset() {
	g.a = 0
	g.b = g.b[:0]
	clear(g.m)
}

// Bad forgets one field.
type Bad struct {
	a    int
	leak int // want `field Bad\.leak is not reset by Reset`
}

func (b *Bad) Reset() { b.a = 0 }

// Exempt carries an allow directive on the uncovered field.
type Exempt struct {
	a int
	//spylint:allow resetcomplete fixed at construction
	cfg int
}

func (e *Exempt) Reset() { e.a = 0 }

// Helper delegates part of the reset to another method on the same
// receiver; the analyzer follows the call.
type Helper struct {
	x int
	y int
	z int // want `field Helper\.z is not reset by Reset`
}

func (h *Helper) Reset() {
	h.x = 0
	h.clearY()
}

func (h *Helper) clearY() { h.y = 0 }

// Seeded has no Reset; Reseed is the RNG spelling of the same contract.
type Seeded struct {
	s     uint64
	spare float64
	leak  int // want `field Seeded\.leak is not reset by Reseed`
}

func (s *Seeded) Reseed(seed uint64) {
	s.s = seed
	s.spare = 0
}

// Whole rewrites the entire struct: every field is covered at once.
type Whole struct {
	a int
	b []int
}

func (w *Whole) Reset() { *w = Whole{} }

// Ranged resets a collection field by mutating each element.
type Ranged struct {
	kids []*Kid
}

func (r *Ranged) Reset() {
	for _, k := range r.kids {
		k.Reset()
	}
}

type Kid struct{ n int }

func (k *Kid) Reset() { k.n = 0 }

// ValRecv's Reset takes a value receiver: it cannot reset anything, so
// the analyzer skips the type entirely rather than reporting noise.
type ValRecv struct{ a int }

func (v ValRecv) Reset() {}

// Addressed hands a field out by address; the callee may reset it.
type Addressed struct {
	buf [4]byte
}

func (a *Addressed) Reset() { fill(&a.buf) }

func fill(b *[4]byte) { *b = [4]byte{} }

// Snap's Reset is complete, but its copyFrom forgets a field: a
// restored Snap would keep its own stale count.
type Snap struct {
	a     int
	count int // want `field Snap\.count is not copied by copyFrom`
	//spylint:allow resetcomplete fixed at construction
	cfg int
}

func (s *Snap) Reset() {
	s.a = 0
	s.count = 0
}

func (s *Snap) copyFrom(src *Snap) { s.a = src.a }

// Restored is judged by Restore, which delegates to a helper on the
// same receiver; the analyzer follows the call.
type Restored struct {
	rows []int
	seen map[int]bool
	last int // want `field Restored\.last is not copied by Restore`
}

func (r *Restored) Restore(src *Restored) {
	r.rows = append(r.rows[:0], src.rows...)
	r.copySeen(src)
}

func (r *Restored) copySeen(src *Restored) {
	clear(r.seen)
	for k := range src.seen {
		r.seen[k] = true
	}
}

// Copied copies every field, one through a method on the field.
type Copied struct {
	n   int
	kid *Kid
}

func (c *Copied) CopyFrom(src *Copied) {
	c.n = src.n
	c.kid.CopyFrom(src.kid)
}

func (k *Kid) CopyFrom(src *Kid) { k.n = src.n }
