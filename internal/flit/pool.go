package flit

// Pool is a free-list of Flit objects owned by one network. The cycle loop
// allocates a flit per segment of every injected packet and discards it at
// ejection; recycling them through a pool removes that allocation from the
// steady-state hot path entirely (a flit's Data buffer keeps its capacity
// across reuses, so payload copies stop allocating too).
//
// A Pool is NOT safe for concurrent use: it belongs to a single network,
// and each network runs on one goroutine. Parallel sweeps give every
// experiment point its own network and therefore its own pool.
type Pool struct {
	free []*Flit

	gets int64
	puts int64
}

// Get returns a zeroed flit, reusing a recycled one when available. The
// returned flit's Data is an empty slice that may carry capacity from a
// previous life.
func (p *Pool) Get() *Flit {
	p.gets++
	n := len(p.free)
	if n == 0 {
		return &Flit{}
	}
	f := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return f
}

// Put recycles a flit. The caller must hold the only live reference: the
// flit's fields (including its Data contents) are dead after Put. Put(nil)
// is a no-op.
func (p *Pool) Put(f *Flit) {
	if f == nil {
		return
	}
	p.puts++
	data := f.Data[:0]
	*f = Flit{Data: data}
	p.free = append(p.free, f)
}

// Outstanding reports Get calls minus Put calls: the number of pool flits
// currently alive in the network. A drained network must report zero, which
// is the leak check the network tests enforce over the ejection, abort-
// tail, and dead-link drop paths.
func (p *Pool) Outstanding() int64 { return p.gets - p.puts }

// Gets reports the total number of Get calls, for reuse-rate accounting.
func (p *Pool) Gets() int64 { return p.gets }
