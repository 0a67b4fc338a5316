package main

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// growBuf is an in-memory growing file: Read drains what has been
// written so far and then reports "no data yet" — (0, io.EOF) like a
// real file, or the technically-legal (0, nil) when zeroOnEmpty is set.
// Truncate shrinks it the way log rotation shrinks a file.
type growBuf struct {
	mu          sync.Mutex
	data        []byte
	off         int
	reads       int
	zeroOnEmpty bool
}

func (g *growBuf) Read(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reads++
	if g.off >= len(g.data) {
		if g.zeroOnEmpty {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:])
	g.off += n
	return n, nil
}

func (g *growBuf) append(s string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.data = append(g.data, s...)
}

func (g *growBuf) truncate(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.data = g.data[:n]
	if g.off > n {
		g.off = n
	}
}

func (g *growBuf) size() (int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(len(g.data)), nil
}

func (g *growBuf) readCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reads
}

// event is one step of a scripted writer: wait, then append and/or
// truncate.
type event struct {
	after      time.Duration
	append     string
	truncateTo int // -1: no truncation
}

// TestTailReader drives tailReader over scripted writers: slow and
// bursty producers, zero-byte reads, a final line landing in two timed
// halves, and mid-run truncation.
func TestTailReader(t *testing.T) {
	const (
		idle = 80 * time.Millisecond
		poll = 2 * time.Millisecond
	)
	tests := []struct {
		name        string
		events      []event
		zeroOnEmpty bool
		statable    bool
		// midLine installs a partial hook that reports whether the
		// delivered bytes end mid-line, as the JSON decoder's Pending
		// does; without it the hook reports no partial record.
		midLine bool
		want    string
		wantErr error
		// maxReads bounds the number of underlying Read calls: polling
		// at the poll interval stays in the hundreds, while a hot spin
		// on a no-data branch would run to the millions.
		maxReads int
	}{
		{
			name: "slow writer",
			events: []event{
				{after: 0, append: "a 1\n", truncateTo: -1},
				{after: 30 * time.Millisecond, append: "b 2\n", truncateTo: -1},
				{after: 30 * time.Millisecond, append: "c 3\n", truncateTo: -1},
			},
			statable: true,
			want:     "a 1\nb 2\nc 3\n",
			wantErr:  io.EOF,
			maxReads: 2000,
		},
		{
			name: "burst writer",
			events: []event{
				{after: 0, append: strings.Repeat("line of history\n", 200), truncateTo: -1},
				{after: 20 * time.Millisecond, append: strings.Repeat("second burst\n", 200), truncateTo: -1},
			},
			statable: true,
			want:     strings.Repeat("line of history\n", 200) + strings.Repeat("second burst\n", 200),
			wantErr:  io.EOF,
			maxReads: 2000,
		},
		{
			name: "zero-byte reads do not spin or stall",
			events: []event{
				{after: 0, append: "a 1\n", truncateTo: -1},
				{after: 30 * time.Millisecond, append: "b 2\n", truncateTo: -1},
			},
			zeroOnEmpty: true,
			want:        "a 1\nb 2\n",
			wantErr:     io.EOF,
			maxReads:    2000,
		},
		{
			name: "final line in two timed halves outlives the idle window",
			events: []event{
				{after: 0, append: "complete 1\n{\"half\":", truncateTo: -1},
				// The pause exceeds idle (but not the partial-line
				// grace): completion must wait for the newline, not hand
				// the fragment to the decoder.
				{after: idle * 2, append: "\"rest\"}\n", truncateTo: -1},
			},
			statable: true,
			midLine:  true,
			want:     "complete 1\n{\"half\":\"rest\"}\n",
			wantErr:  io.EOF,
			maxReads: 2000,
		},
		{
			name: "unterminated final line completes after the extended grace",
			events: []event{
				{after: 0, append: "complete 1\nno trailing newline", truncateTo: -1},
			},
			statable: true,
			midLine:  true,
			want:     "complete 1\nno trailing newline",
			wantErr:  io.EOF,
			maxReads: 2000,
		},
		{
			name: "truncation fails loudly",
			events: []event{
				{after: 0, append: "a 1\nb 2\n", truncateTo: -1},
				{after: 20 * time.Millisecond, append: "", truncateTo: 3},
			},
			statable: true,
			want:     "a 1\nb 2\n",
			wantErr:  errTruncated,
			maxReads: 2000,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := &growBuf{zeroOnEmpty: tc.zeroOnEmpty}
			var b strings.Builder
			partial := func() bool { return false }
			if tc.midLine {
				partial = func() bool { return b.Len() > 0 && !strings.HasSuffix(b.String(), "\n") }
			}
			tr := &tailReader{r: g, idle: idle, poll: poll, last: time.Now(), partial: partial}
			if tc.statable {
				tr.size = g.size
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, ev := range tc.events {
					time.Sleep(ev.after)
					if ev.append != "" {
						g.append(ev.append)
					}
					if ev.truncateTo >= 0 {
						g.truncate(ev.truncateTo)
					}
				}
			}()

			buf := make([]byte, 64)
			var err error
			for err == nil {
				var n int
				n, err = tr.Read(buf)
				b.Write(buf[:n])
			}
			<-done
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("terminal error = %v, want %v", err, tc.wantErr)
			}
			if got := b.String(); got != tc.want {
				t.Errorf("delivered %q, want %q", got, tc.want)
			}
			if n := g.readCount(); n > tc.maxReads {
				t.Errorf("%d underlying reads; want <= %d (hot spin?)", n, tc.maxReads)
			}
		})
	}
}
