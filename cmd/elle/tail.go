package main

import (
	"errors"
	"io"
	"os"
	"time"
)

// errTruncated reports that the followed file shrank below what the
// checker already consumed — a log rotation or truncation. The history
// on disk is no longer the history being checked, so the run fails
// loudly (exit status 3) instead of quietly reporting on a prefix.
var errTruncated = errors.New("followed file shrank (truncated or rotated?)")

// graceFactor stretches the idle window while the delivered tail is a
// partial line: a writer mid-line gets this many quiet windows to
// finish it before the fragment is treated as a final unterminated
// line.
const graceFactor = 4

// tailReader adapts a growing file to the streaming decoder: EOF from
// the underlying reader means "no more data yet", so reads poll until
// new bytes appear, and only report io.EOF once the source has been
// quiet for the idle window — the follow-mode heuristic for "the run is
// over". Stdin needs no such wrapper: a pipe blocks until data or
// close, so plain EOF is already definitive there.
//
// Two guards keep the heuristic honest:
//
//   - The idle window normally only ends the stream on a record
//     boundary. A writer paused between a partial JSON line and its
//     newline must not have the fragment handed to the decoder as if it
//     were final — that would turn a slow write into a spurious decode
//     error (or a silently mis-parsed op). While the delivered tail is
//     a partial line the reader keeps polling through graceFactor idle
//     windows; only after that extended quiet is the fragment passed on
//     as a final unterminated line, which the decoder accepts exactly
//     as a batch read of the same file would. Whether the delivered
//     tail is partial is the decoder's to say, through the partial hook:
//     both the JSON and the ellebin decoder know where their records
//     end.
//   - Every poll at EOF stats the file (when the source is statable):
//     if it shrank below the bytes already consumed, the stream fails
//     with errTruncated rather than ending in a short — wrong — report.
//     The guard is a size check, not a content check: a rotation whose
//     replacement regrows past the consumed offset before the next
//     no-data poll evades it. That needs a writer outrunning the
//     reader's 25ms poll from a standing start; the common rotation —
//     file shrinks, reader notices — is caught.
type tailReader struct {
	r    io.Reader
	size func() (int64, error) // current source size; nil when unknowable
	idle time.Duration         // quiet period after which the stream is declared complete
	poll time.Duration         // delay between retries when no data is available
	last time.Time             // time of the last successful read
	read int64                 // total bytes delivered downstream

	// partial reports whether the downstream decoder holds an
	// incomplete record and so deserves the extended grace window. The
	// follow path wires it to the decoder's Pending: the decoder, not a
	// byte value, knows where records end.
	partial func() bool
}

func newTailReader(r io.Reader, idle time.Duration, partial func() bool) *tailReader {
	t := &tailReader{r: r, idle: idle, poll: 25 * time.Millisecond, last: time.Now(), partial: partial}
	if f, ok := r.(*os.File); ok {
		t.size = func() (int64, error) {
			fi, err := f.Stat()
			if err != nil {
				return 0, err
			}
			return fi.Size(), nil
		}
	}
	return t
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if n > 0 {
			t.read += int64(n)
			t.last = time.Now()
			return n, nil
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, err
		}
		// No data, whether the reader said (0, io.EOF) or the
		// technically-legal (0, nil): both mean "nothing yet". Check for
		// truncation, see if the quiet window has elapsed, and poll —
		// sleeping on every no-data branch, so neither shape of "no
		// data" hot-spins a CPU.
		if t.size != nil {
			size, serr := t.size()
			if serr != nil {
				return 0, serr
			}
			if size < t.read {
				return 0, errTruncated
			}
		}
		quiet := t.idle
		if t.partial() {
			quiet = graceFactor * t.idle
		}
		if time.Since(t.last) >= quiet {
			return 0, io.EOF
		}
		time.Sleep(t.poll)
	}
}
