package service

// shardPool is the inference pool: N single-goroutine workers, each
// owning a bounded task queue. Chunk ingest — WAL append, decode, and
// session Feed — runs as a task on the job's home shard, which decouples
// HTTP handler goroutines (one per in-flight request, unbounded) from
// inference (at most N chunks decoding/feeding at once), while keeping
// every job's chunks strictly FIFO: a job's shard is its creation
// sequence modulo N, fixed for its life, and a shard is one goroutine,
// so feed order is upload order and the report stays byte-identical to
// batch at any shard count. Placement by creation order, not by the
// job's data, puts N jobs created in a row on N distinct shards.
//
// A full queue refuses the task instead of blocking — the handler turns
// that into 429 shard_busy, the same backpressure-not-queueing stance
// MaxJobs takes.
type shardPool struct {
	queues []chan func()
	done   chan struct{}
}

func newShardPool(n, depth int) *shardPool {
	p := &shardPool{queues: make([]chan func(), n), done: make(chan struct{})}
	for i := range p.queues {
		q := make(chan func(), depth)
		p.queues[i] = q
		go p.work(q)
	}
	return p
}

func (p *shardPool) work(q chan func()) {
	for {
		select {
		case <-p.done:
			// Drain tasks already accepted — each has a handler blocked on
			// its completion — then exit.
			for {
				select {
				case f := <-q:
					f()
				default:
					return
				}
			}
		case f := <-q:
			f()
		}
	}
}

// run executes f on shard n mod the pool's size and waits for it to
// finish, returning false without running it when the shard's queue is
// full. A panic in f does not end the shard's worker: run re-panics
// with its value on the caller's goroutine, where recover contains it,
// and the shard goes on to its next task.
func (p *shardPool) run(n int, f func()) bool {
	fin := make(chan any) // the task's panic value; nil when it returned
	task := func() {
		defer func() { fin <- recover() }()
		f()
	}
	select {
	case p.queues[n%len(p.queues)] <- task:
	default:
		return false
	}
	if v := <-fin; v != nil {
		panic(v)
	}
	return true
}

func (p *shardPool) size() int       { return len(p.queues) }
func (p *shardPool) depth(i int) int { return len(p.queues[i]) }

// stop shuts the workers down after they drain accepted tasks. Call
// only after the enclosing HTTP server has stopped accepting requests;
// tasks enqueued concurrently with stop still run (the drain loop picks
// them up), but new run calls may spuriously report a full queue.
func (p *shardPool) stop() { close(p.done) }
