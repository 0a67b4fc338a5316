// Package wal persists the checking service's jobs as per-job
// append-only journals, so a killed elled resumes its in-flight streams
// on restart instead of 404-ing every client. One job owns one file
// under the WAL directory — <id>.wal — holding the job's create
// parameters followed by every accepted chunk, byte for byte as it was
// uploaded. The journal is written before the job's session sees the
// chunk: what the client got a 200 for is what replay re-feeds.
//
// The framing is ellebin's (internal/binhist, docs/FORMATS.md): an
// 8-byte magic header, then uvarint length-prefixed records, each
// payload led by a kind byte —
//
//	header: 8 bytes  EA 6C 6C 65 77 61 6C vv  (0xEA "llewal" + version)
//	meta  (0x01): JSON-encoded Meta — the job's create parameters
//	chunk (0x02): one format byte ('j' JSON lines | 'b' ellebin),
//	              then the chunk body exactly as uploaded
//
// As in ellebin, the framing is the integrity story: a journal cut off
// mid-record by a crash — a torn trailing record — parses cleanly up to
// the last valid frame, and replay truncates the tear so appends resume
// at a record boundary. A client that never heard the 200 for the torn
// chunk re-sends it; the resume protocol in docs/SERVICE.md is built on
// exactly this property.
//
// Durability is configurable (SyncMode): fsync on every append, fsync
// at most once per interval, or never (the OS flushes). Whatever the
// mode, replay never yields a half-chunk — the length prefix sees to
// that — so a weaker mode trades *how many* acked chunks a crash can
// lose, never whether the survivors are intact.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Version is the journal format version, the header's final byte.
const Version = 1

// magic tags a journal file. The leading 0xEA cannot begin JSON and is
// distinct from ellebin's 0xEB, so the three formats never mis-identify.
var magic = [7]byte{0xEA, 'l', 'l', 'e', 'w', 'a', 'l'}

const headerLen = 8

// Record kinds.
const (
	recMeta  = 0x01 // JSON-encoded Meta
	recChunk = 0x02 // format byte + raw chunk body
)

// Chunk format bytes, matching the two upload formats elled accepts.
const (
	FormatJSON   = byte('j') // JSON lines
	FormatBinary = byte('b') // ellebin
)

// maxRecordBytes bounds one record's payload so a corrupt length prefix
// cannot demand an absurd allocation. Chunk bodies are capped far lower
// by the service's MaxChunkBytes.
const maxRecordBytes = 1 << 30

// ErrCorrupt tags journals whose header or meta record is unreadable —
// the file is not (or no longer) a journal this package understands.
// Torn trailing records are NOT corruption; they are truncated silently.
var ErrCorrupt = errors.New("corrupt wal journal")

// Meta is a job's create-time identity and parameters, journaled as the
// first record so replay can reconstruct the job before re-feeding its
// chunks.
type Meta struct {
	// ID is the job's public identifier; the journal file is named
	// after it. Seq is the numeric suffix the service allocates IDs
	// from; replay seeds the allocator past the highest survivor.
	ID  string `json:"id"`
	Seq int    `json:"seq"`

	Workload     string    `json:"workload"`
	Model        string    `json:"model"`
	Parallelism  int       `json:"parallelism,omitempty"`
	MemoryBudget int       `json:"memory_budget,omitempty"`
	CreatedAt    time.Time `json:"created_at"`
}

// SyncMode selects when a journal fsyncs.
type SyncMode int

const (
	// SyncAlways fsyncs after every append: an acked chunk survives any
	// crash. The default, and the mode the resume acceptance test runs.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per interval, piggybacked on
	// appends (and always on Close): a crash loses at most the last
	// interval's acked chunks, which clients re-send via the resume
	// protocol.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes when it pleases. Fastest,
	// and still crash-consistent — replay just sees fewer chunks.
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none", "never":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown sync mode %q (always, interval, none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return "always"
}

// Options configures a Journal's durability and instrumentation.
type Options struct {
	Mode SyncMode
	// Interval bounds how stale the file can be under SyncInterval.
	// Zero means 100ms.
	Interval time.Duration
	// OnFsync, when set, observes each fsync's wall-clock latency —
	// the service's wal_fsync_seconds histogram.
	OnFsync func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// file is what a Journal needs of its open file: an *os.File, or in
// tests one that fails a write or an fsync on cue.
type file interface {
	Write(b []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// openFile opens a journal's file for appending; tests wrap what it
// returns.
var openFile = func(path string, flag int) (file, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// A Journal is one job's open write handle. Methods are safe for a
// single writer; the service serializes appends per job anyway.
type Journal struct {
	path     string
	f        file
	opts     Options
	size     int64
	lastSync time.Time
	buf      []byte // record scratch, reused across appends
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Size returns the bytes written so far (including any replayed prefix
// when the journal was reopened for append).
func (j *Journal) Size() int64 { return j.size }

// Create opens a fresh journal for meta under dir, writing the header
// and meta record. The directory entry is fsynced so the journal
// survives a crash immediately after creation.
func Create(dir string, opts Options, meta Meta) (*Journal, error) {
	path := filepath.Join(dir, meta.ID+".wal")
	f, err := openFile(path, os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, f: f, opts: opts.withDefaults()}
	mj, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	hdr := append(append([]byte{}, magic[:]...), Version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	j.size = int64(len(hdr))
	if err := j.appendRecord(recMeta, 0, mj); err != nil {
		f.Close()
		return nil, err
	}
	if opts.Mode != SyncNone {
		if err := j.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		syncDir(dir)
	}
	return j, nil
}

// AppendChunk journals one accepted chunk body in its upload format,
// fsyncing per the journal's mode. It must be called before the chunk
// is fed to the job's session: the durability contract is "acked ⇒
// journaled", and feeding first would invert it. A failed append — a
// short write, or a failed fsync after a full one — is undone: the file
// is truncated back to its size before the call, so a retried chunk is
// journaled once and no torn frame sits mid-file. If the truncation
// fails too, Size still counts the bytes the file holds, and the
// journal is not fit for further appends.
func (j *Journal) AppendChunk(format byte, body []byte) error {
	before := j.size
	err := j.appendRecord(recChunk, format, body)
	if err == nil && (j.opts.Mode == SyncAlways ||
		j.opts.Mode == SyncInterval && time.Since(j.lastSync) >= j.opts.Interval) {
		err = j.Sync()
	}
	if err != nil && j.size != before {
		if terr := j.f.Truncate(before); terr != nil {
			return fmt.Errorf("%w; undoing the append failed too: %v", err, terr)
		}
		j.size = before
	}
	return err
}

// appendRecord writes one length-prefixed record. format is prepended
// to the payload for chunk records only (recMeta passes 0).
func (j *Journal) appendRecord(kind, format byte, payload []byte) error {
	n := 1 + len(payload)
	if kind == recChunk {
		n++
	}
	b := j.buf[:0]
	b = binary.AppendUvarint(b, uint64(n))
	b = append(b, kind)
	if kind == recChunk {
		b = append(b, format)
	}
	b = append(b, payload...)
	j.buf = b[:0]
	w, err := j.f.Write(b)
	j.size += int64(w)
	return err
}

// Sync fsyncs the journal, observing the latency when instrumented.
func (j *Journal) Sync() error {
	start := time.Now()
	err := j.f.Sync()
	j.lastSync = time.Now()
	if j.opts.OnFsync != nil {
		j.opts.OnFsync(j.lastSync.Sub(start))
	}
	return err
}

// Close fsyncs (except under SyncNone) and closes the file. The journal
// stays on disk for replay.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	var err error
	if j.opts.Mode != SyncNone {
		err = j.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Remove closes the journal and deletes its file — the job was
// cancelled, reaped, or finished, and has nothing left to resume.
func (j *Journal) Remove() error {
	j.Close()
	err := os.Remove(j.path)
	syncDir(filepath.Dir(j.path))
	return err
}

// syncDir fsyncs a directory so entry creation/removal is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Chunk is one replayed chunk record: the body exactly as the client
// uploaded it, plus its format byte.
type Chunk struct {
	Format byte
	Body   []byte
}

// Replayed is one journal parsed back from disk: the job's meta, every
// intact chunk, and how many trailing bytes were torn off mid-record by
// the crash (0 for a cleanly synced journal).
type Replayed struct {
	Path   string
	Meta   Meta
	Chunks []Chunk
	// Torn is the length of the invalid tail past the last valid frame.
	// ReadFile does not modify the file; OpenAppend truncates the tear
	// before appending resumes.
	Torn int64

	valid int64 // file offset of the last valid frame's end
}

// ReadFile parses one journal. Torn trailing bytes — a record cut off
// mid-write — are dropped, not an error: the final intact frame ends
// the replay. A file whose header or meta record is unreadable returns
// ErrCorrupt: it is not a resumable journal at all.
func ReadFile(path string) (*Replayed, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerLen {
		return nil, fmt.Errorf("wal: %w: %s: short header", ErrCorrupt, path)
	}
	for i := range magic {
		if raw[i] != magic[i] {
			return nil, fmt.Errorf("wal: %w: %s: bad magic", ErrCorrupt, path)
		}
	}
	if raw[7] != Version {
		return nil, fmt.Errorf("wal: %w: %s: unsupported version %d", ErrCorrupt, path, raw[7])
	}
	r := &Replayed{Path: path, valid: headerLen}
	pos := int64(headerLen)
	sawMeta := false
	for {
		n, w := binary.Uvarint(raw[pos:])
		if w <= 0 || n == 0 || n > maxRecordBytes || pos+int64(w)+int64(n) > int64(len(raw)) {
			break // torn (or absent) trailing record: stop at the last valid frame
		}
		payload := raw[pos+int64(w) : pos+int64(w)+int64(n)]
		switch payload[0] {
		case recMeta:
			var m Meta
			if err := json.Unmarshal(payload[1:], &m); err != nil || m.ID == "" {
				if !sawMeta {
					return nil, fmt.Errorf("wal: %w: %s: unreadable meta record", ErrCorrupt, path)
				}
				return r.tear(int64(len(raw))), nil
			}
			r.Meta = m
			sawMeta = true
		case recChunk:
			if n < 2 || (payload[1] != FormatJSON && payload[1] != FormatBinary) {
				return r.tear(int64(len(raw))), nil
			}
			r.Chunks = append(r.Chunks, Chunk{Format: payload[1], Body: payload[2:]})
		default:
			// An unknown kind means the frame stream has derailed; keep
			// the valid prefix.
			return r.tear(int64(len(raw))), nil
		}
		pos += int64(w) + int64(n)
		r.valid = pos
	}
	if !sawMeta {
		return nil, fmt.Errorf("wal: %w: %s: no meta record", ErrCorrupt, path)
	}
	return r.tear(int64(len(raw))), nil
}

func (r *Replayed) tear(fileLen int64) *Replayed {
	r.Torn = fileLen - r.valid
	return r
}

// OpenAppend reopens a replayed journal for appending: the torn tail
// (if any) is truncated so the next record lands on a frame boundary,
// and the returned Journal continues where the crash left off.
func (r *Replayed) OpenAppend(opts Options) (*Journal, error) {
	if r.Torn > 0 {
		if err := os.Truncate(r.Path, r.valid); err != nil {
			return nil, err
		}
	}
	f, err := openFile(r.Path, 0)
	if err != nil {
		return nil, err
	}
	return &Journal{path: r.Path, f: f, opts: opts.withDefaults(), size: r.valid}, nil
}

// ReplayDir parses every *.wal journal under dir, in job-sequence
// order. Journals that are not readable at all (ErrCorrupt, I/O) are
// returned in skipped by path rather than aborting the replay: one
// mangled file must not take down every other job's resume.
func ReplayDir(dir string) (jobs []*Replayed, skipped []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		r, err := ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			skipped = append(skipped, filepath.Join(dir, e.Name()))
			continue
		}
		jobs = append(jobs, r)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Meta.Seq != jobs[k].Meta.Seq {
			return jobs[i].Meta.Seq < jobs[k].Meta.Seq
		}
		return jobs[i].Meta.ID < jobs[k].Meta.ID
	})
	return jobs, skipped, nil
}
