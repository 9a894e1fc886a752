// Package bloom implements the small, fast Bloom filters that the Shrink
// scheduler uses to remember the read sets of a thread's recent transactions.
// The filters are single-threaded (one owner thread each), so no
// synchronization is needed; that matches the paper, where each thread keeps
// its own window of filters.
package bloom

// Filter is a fixed-size Bloom filter over uint64 keys. The zero value is not
// usable; construct with New.
type Filter struct {
	bits   []uint64
	mask   uint64 // number of bits - 1 (size is a power of two)
	hashes int
}

// New returns a filter with at least sizeBits bits (rounded up to a power of
// two, minimum 64) and the given number of hash functions (clamped to 1..8).
func New(sizeBits, hashes int) *Filter {
	if sizeBits < 64 {
		sizeBits = 64
	}
	n := 64
	for n < sizeBits {
		n <<= 1
	}
	if hashes < 1 {
		hashes = 1
	}
	if hashes > 8 {
		hashes = 8
	}
	return &Filter{
		bits:   make([]uint64, n/64),
		mask:   uint64(n - 1),
		hashes: hashes,
	}
}

// splitmix64 is the mixing function used to derive the k hash values from a
// key. It has full avalanche, so successive seeds produce independent-enough
// probes for Bloom filter purposes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	h := splitmix64(key)
	for i := 0; i < f.hashes; i++ {
		bit := h & f.mask
		f.bits[bit>>6] |= 1 << (bit & 63)
		h = splitmix64(h)
	}
}

// Contains reports whether key may have been added. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	h := splitmix64(key)
	for i := 0; i < f.hashes; i++ {
		bit := h & f.mask
		if f.bits[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
		h = splitmix64(h)
	}
	return true
}

// Reset clears the filter for reuse.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// Window is a fixed-length ring of Bloom filters representing the read sets
// of the last few transactions of a thread, newest first: W.At(0) is the
// current transaction's filter, W.At(i) the filter of the i-th previous
// transaction. Rotation happens at transaction commit.
type Window struct {
	filters []*Filter
	head    int
}

// NewWindow returns a window of n filters of the given geometry.
func NewWindow(n, sizeBits, hashes int) *Window {
	if n < 1 {
		n = 1
	}
	w := &Window{filters: make([]*Filter, n)}
	for i := range w.filters {
		w.filters[i] = New(sizeBits, hashes)
	}
	return w
}

// Len returns the number of filters in the window.
func (w *Window) Len() int { return len(w.filters) }

// At returns the filter of the i-th previous transaction (0 = current).
func (w *Window) At(i int) *Filter {
	return w.filters[(w.head+i)%len(w.filters)]
}

// Rotate makes the current filter historical and returns a cleared filter
// that becomes the new current one (the oldest filter is recycled).
func (w *Window) Rotate() *Filter {
	w.head--
	if w.head < 0 {
		w.head += len(w.filters)
	}
	f := w.filters[w.head]
	f.Reset()
	return f
}
