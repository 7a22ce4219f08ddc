package kvcache

import (
	"errors"
	"testing"
)

// poolModel is the reference the paged allocators are held to: plain
// per-sequence arithmetic over the live token counts, with no block
// bookkeeping of its own. S is the tokens the shared full blocks hold
// (⌊prefix/b⌋·b; 0 on a plain Paged). A sequence of t tokens holds
// ⌈max(t−S, 0)/b⌉ private blocks and max(t−S, 0) private tokens; the
// S/b shared blocks count while any sequence lives.
type poolModel struct {
	b, S, total int
	tokens      []int  // per issued handle
	live        []bool // per issued handle
}

func (m *poolModel) private(t int) int { return max(t-m.S, 0) }

func (m *poolModel) blocks(t int) int { return (m.private(t) + m.b - 1) / m.b }

func (m *poolModel) liveSeqs() int {
	n := 0
	for _, l := range m.live {
		if l {
			n++
		}
	}
	return n
}

// usedBlocks counts every live sequence's private blocks, plus the
// shared blocks while any sequence lives.
func (m *poolModel) usedBlocks() int {
	used := 0
	for i, l := range m.live {
		if l {
			used += m.blocks(m.tokens[i])
		}
	}
	if m.liveSeqs() > 0 {
		used += m.S / m.b
	}
	return used
}

func (m *poolModel) freeBlocks() int { return m.total - m.usedBlocks() }

func (m *poolModel) wasteTokens() int {
	w := 0
	for i, l := range m.live {
		if l {
			w += m.blocks(m.tokens[i])*m.b - m.private(m.tokens[i])
		}
	}
	return w
}

// canAlloc: a new sequence draws its private blocks, plus the shared
// blocks when no sequence holds them yet.
func (m *poolModel) canAlloc(t int) bool {
	need := m.blocks(t)
	if m.liveSeqs() == 0 {
		need += m.S / m.b
	}
	return need <= m.freeBlocks()
}

// maxExtendSteps is a linear scan over k: the largest k ≤ limit whose
// extra private blocks, summed over the listed sequences, are free.
func (m *poolModel) maxExtendSteps(idx []int, limit int) int {
	for _, i := range idx {
		if i < 0 || !m.live[i] {
			return 0
		}
	}
	free := m.freeBlocks()
	k := 0
	for k < limit {
		demand := 0
		for _, i := range idx {
			t := m.tokens[i]
			demand += m.blocks(t+k+1) - m.blocks(t)
		}
		if demand > free {
			break
		}
		k++
	}
	return k
}

// FuzzPagedMatchesModel drives Paged, PrefixPaged and Tiered through
// byte-decoded Alloc/CanAlloc/Extend/MaxExtendSteps/Free sequences —
// stale, zero and foreign handles and shrinking extends included —
// and holds every answer, and UsedBytes/WasteBytes/Sequences after
// every operation, to poolModel. Prefixes cover none, fewer tokens
// than one block and several blocks, and prompts run from empty to
// past the prefix, so prompts shorter than the prefix are common.
//
// Layout: data[0] picks the allocator, data[1] the block size,
// data[2] the prefix, data[3] the block budget; then each operation
// is an opcode byte followed by its argument bytes (missing bytes
// read as 0).
func FuzzPagedMatchesModel(f *testing.F) {
	f.Add([]byte{0, 2, 0, 10, 0, 40, 0, 17, 2, 0, 30, 3, 1, 0, 0, 20, 4, 0})
	f.Add([]byte{1, 2, 70, 12, 0, 10, 0, 70, 2, 1, 90, 3, 2, 0, 1, 200, 4, 0, 4, 0, 0, 5})
	f.Add([]byte{1, 2, 5, 3, 0, 3, 0, 30, 2, 0, 50, 3, 1, 0, 0, 40, 1, 60, 4, 1})
	f.Add([]byte{2, 1, 9, 4, 0, 3, 0, 20, 4, 0, 0, 6, 3, 2, 1, 255, 2, 2, 1, 4, 1, 4, 0, 0, 15})
	f.Add([]byte{1, 0, 3, 2, 0, 1, 0, 1, 2, 0, 200, 2, 1, 2, 4, 0, 4, 0, 0, 2})
	f.Add([]byte{2, 2, 95, 5, 0, 60, 0, 90, 4, 0, 0, 70, 3, 0, 0, 100, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		kind := at(0) % 3 // 0 Paged, 1 PrefixPaged, 2 Tiered
		b := []int{1, 4, 16}[at(1)%3]
		prefix := 0
		if kind > 0 {
			prefix = at(2) % (6 * b) // none, under a block, or several blocks
		}
		total := 1 + at(3)%24
		capBytes := float64(total*b) + float64(at(3)%b) // a partial block is not a block

		var a Allocator
		var live func() int
		switch kind {
		case 0:
			p, err := NewPaged(b, 1, capBytes)
			if err != nil {
				t.Fatal(err)
			}
			a, live = p, p.Sequences
		default:
			p, err := NewPrefixPaged(b, prefix, 1, capBytes)
			if prefix/b > total {
				if !errors.Is(err, ErrPrefixTooLarge) {
					t.Fatalf("prefix of %d blocks in %d: err %v, want ErrPrefixTooLarge", prefix/b, total, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			a, live = p, p.Sequences
			if kind == 2 {
				tv, err := NewTiered(p, capBytes, HostLink{GBPerS: 32, LatencyS: 5e-6})
				if err != nil {
					t.Fatal(err)
				}
				a, live = tv, tv.Sequences
			}
		}
		m := &poolModel{b: b, S: prefix / b * b, total: total}
		var handles []Seq
		// pick decodes a handle: an issued one (live or dead), the
		// zero Seq, or a slot the allocator never made (index -1).
		pick := func(x int) (Seq, int) {
			switch i := x % (len(handles) + 2); {
			case i < len(handles):
				return handles[i], i
			case i == len(handles):
				return 0, -1
			default:
				return makeSeq(len(handles)+7, 1), -1
			}
		}
		tokenSpan := m.S + 3*b + 2

		for pos := 4; pos < len(data); {
			op := at(pos) % 5
			switch op {
			case 0: // Alloc
				tok := at(pos+1) % tokenSpan
				want := m.canAlloc(tok)
				s, err := a.Alloc(tok)
				if want != (err == nil) || (err != nil && !errors.Is(err, ErrOutOfMemory)) {
					t.Fatalf("Alloc(%d): err %v, model fits %t", tok, err, want)
				}
				if err == nil {
					handles = append(handles, s)
					m.tokens = append(m.tokens, tok)
					m.live = append(m.live, true)
				}
				pos += 2
			case 1: // CanAlloc
				tok := at(pos+1) % tokenSpan
				if got, want := a.CanAlloc(tok), m.canAlloc(tok); got != want {
					t.Fatalf("CanAlloc(%d) = %t, model %t", tok, got, want)
				}
				pos += 2
			case 2: // Extend: a shrink when the delta byte is ≥ 200
				s, i := pick(at(pos + 1))
				d := at(pos + 2)
				cur := 0
				if i >= 0 {
					cur = m.tokens[i]
				}
				tok := cur + d%(2*b+1)
				if d >= 200 {
					tok = cur - 1 - d%3
				}
				err := a.Extend(s, tok)
				switch {
				case i < 0 || !m.live[i]:
					if err == nil || errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("Extend of a dead handle: err %v, want a handle error", err)
					}
				case tok < cur:
					if err == nil || errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("Extend %d -> %d: err %v, want a shrink error", cur, tok, err)
					}
				case m.blocks(tok)-m.blocks(cur) > m.freeBlocks():
					if !errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("Extend %d -> %d: err %v, want ErrOutOfMemory", cur, tok, err)
					}
				default:
					if err != nil {
						t.Fatalf("Extend %d -> %d: %v", cur, tok, err)
					}
					m.tokens[i] = tok
				}
				pos += 3
			case 3: // MaxExtendSteps over up to 4 distinct handles
				n := at(pos+1) % 5
				limit := at(pos+2) - 8 // some limits ≤ 0
				seqs, idx := []Seq{}, []int{}
				for j := 0; j < n; j++ {
					s, i := pick(at(pos + 3 + j))
					dup := false
					for _, q := range seqs {
						dup = dup || q == s
					}
					if !dup {
						seqs, idx = append(seqs, s), append(idx, i)
					}
				}
				want := 0
				if limit > 0 {
					want = m.maxExtendSteps(idx, limit)
				}
				if got := a.MaxExtendSteps(seqs, limit); got != want {
					t.Fatalf("MaxExtendSteps(%d seqs, limit %d) = %d, model %d", len(seqs), limit, got, want)
				}
				pos += 3 + n
			case 4: // Free
				s, i := pick(at(pos + 1))
				a.Free(s)
				if i >= 0 {
					m.live[i] = false
				}
				pos += 2
			}
			if got, want := a.UsedBytes(), float64(m.usedBlocks()*b); got != want {
				t.Fatalf("op %d: UsedBytes %v, model %v", op, got, want)
			}
			if got, want := a.WasteBytes(), float64(m.wasteTokens()); got != want {
				t.Fatalf("op %d: WasteBytes %v, model %v", op, got, want)
			}
			if got, want := live(), m.liveSeqs(); got != want {
				t.Fatalf("op %d: Sequences %d, model %d", op, got, want)
			}
			if a.UsedBytes() > a.CapacityBytes() {
				t.Fatalf("op %d: UsedBytes %v over capacity %v", op, a.UsedBytes(), a.CapacityBytes())
			}
		}
	})
}
