package main

// rng is a splitmix64 stream. opRand keys one per op, so every input of
// op i is a pure function of (seed, round, i), independent of which
// session runs the op and of how many ops ran before it.
type rng struct{ s uint64 }

func opRand(seed int64, round, op int) *rng {
	r := &rng{s: uint64(seed)}
	r.s = r.next() ^ uint64(round)<<32 ^ uint64(op)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for j := i; j < len(b) && j < i+8; j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}
