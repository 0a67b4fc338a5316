package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testMeta(id string, seq int) Meta {
	return Meta{
		ID: id, Seq: seq,
		Workload: "list-append", Model: "serializable",
		Parallelism: 1, CreatedAt: time.Unix(1700000000, 0).UTC(),
	}
}

// write creates a journal with the given chunks and closes it.
func write(t *testing.T, dir, id string, seq int, chunks ...[]byte) string {
	t.Helper()
	j, err := Create(dir, Options{Mode: SyncAlways}, testMeta(id, seq))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := j.AppendChunk(FormatJSON, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return j.Path()
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	chunks := [][]byte{[]byte("line one\n"), []byte("line two\nline three\n"), {}}
	path := write(t, dir, "j7", 7, chunks...)

	r, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta != testMeta("j7", 7) {
		t.Fatalf("meta = %+v", r.Meta)
	}
	if r.Torn != 0 {
		t.Fatalf("clean journal reports %d torn bytes", r.Torn)
	}
	if len(r.Chunks) != len(chunks) {
		t.Fatalf("replayed %d chunks, want %d", len(r.Chunks), len(chunks))
	}
	for i, c := range r.Chunks {
		if c.Format != FormatJSON || !bytes.Equal(c.Body, chunks[i]) {
			t.Fatalf("chunk %d = %q (format %c), want %q", i, c.Body, c.Format, chunks[i])
		}
	}
}

func TestBinaryFormatByte(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, Options{Mode: SyncNone}, testMeta("j1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendChunk(FormatBinary, []byte{0xEB, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	r, err := ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chunks) != 1 || r.Chunks[0].Format != FormatBinary {
		t.Fatalf("chunks = %+v", r.Chunks)
	}
}

// TestTornTail: every truncation point inside the final record drops
// exactly that record, keeps every earlier one, and OpenAppend resumes
// at the frame boundary.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "j3", 3, []byte("first\n"), []byte("second\n"))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := clean.valid - int64(len("second\n")+3) // len prefix + kind + format

	for cut := lastStart + 1; cut < int64(len(whole)); cut++ {
		p := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ReadFile(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(r.Chunks) != 1 || string(r.Chunks[0].Body) != "first\n" {
			t.Fatalf("cut %d: chunks %+v", cut, r.Chunks)
		}
		if r.Torn != cut-lastStart {
			t.Fatalf("cut %d: torn %d, want %d", cut, r.Torn, cut-lastStart)
		}

		// Appending after replay truncates the tear and lands the new
		// record on the boundary: a re-read sees both chunks intact.
		j, err := r.OpenAppend(Options{Mode: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendChunk(FormatJSON, []byte("second again\n")); err != nil {
			t.Fatal(err)
		}
		j.Close()
		again, err := ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Chunks) != 2 || string(again.Chunks[1].Body) != "second again\n" || again.Torn != 0 {
			t.Fatalf("cut %d: after resume-append: %+v", cut, again.Chunks)
		}
	}
}

func TestCorruptHeaderAndMeta(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"empty":       {},
		"short":       {0xEA, 'l', 'l'},
		"bad-magic":   []byte("not a journal, eight+ bytes"),
		"bad-version": append(append([]byte{}, magic[:]...), 99),
		// A valid header whose first record is not parseable meta.
		"no-meta": append(append(append([]byte{}, magic[:]...), Version), 0x02, recMeta, '{'),
	}
	for name, raw := range cases {
		p := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestReplayDir(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "j10", 10, []byte("ten\n"))
	write(t, dir, "j2", 2, []byte("two\n"))
	// A mangled file must be skipped, not abort the replay.
	if err := os.WriteFile(filepath.Join(dir, "junk.wal"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-journal files are ignored outright.
	os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644)

	jobs, skipped, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Meta.ID != "j2" || jobs[1].Meta.ID != "j10" {
		t.Fatalf("jobs = %+v", jobs)
	}
	if len(skipped) != 1 || filepath.Base(skipped[0]) != "junk.wal" {
		t.Fatalf("skipped = %v", skipped)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, Options{Mode: SyncAlways}, testMeta("j1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(j.Path()); !os.IsNotExist(err) {
		t.Fatalf("journal still on disk: %v", err)
	}
}

func TestSyncModes(t *testing.T) {
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("ParseSyncMode accepted junk")
	}
	for s, want := range map[string]SyncMode{
		"always": SyncAlways, "": SyncAlways,
		"interval": SyncInterval,
		"none":     SyncNone, "never": SyncNone,
	} {
		got, err := ParseSyncMode(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", s, got, err)
		}
	}

	// SyncAlways observes one fsync per append (plus creation and close).
	var syncs int
	j, err := Create(t.TempDir(), Options{
		Mode:    SyncAlways,
		OnFsync: func(time.Duration) { syncs++ },
	}, testMeta("j1", 1))
	if err != nil {
		t.Fatal(err)
	}
	base := syncs
	for i := 0; i < 3; i++ {
		if err := j.AppendChunk(FormatJSON, []byte("x\n")); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != base+3 {
		t.Errorf("SyncAlways: %d fsyncs for 3 appends", syncs-base)
	}
	j.Close()

	// SyncInterval with a huge interval never fsyncs mid-stream, but
	// Close still flushes.
	syncs = 0
	j2, err := Create(t.TempDir(), Options{
		Mode: SyncInterval, Interval: time.Hour,
		OnFsync: func(time.Duration) { syncs++ },
	}, testMeta("j2", 2))
	if err != nil {
		t.Fatal(err)
	}
	mid := syncs
	for i := 0; i < 5; i++ {
		if err := j2.AppendChunk(FormatJSON, []byte("x\n")); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != mid {
		t.Errorf("SyncInterval(1h): %d mid-stream fsyncs", syncs-mid)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != mid+1 {
		t.Errorf("Close under SyncInterval did not fsync")
	}
}

func TestSizeTracksBytes(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, Options{Mode: SyncNone}, testMeta("j5", 5))
	if err != nil {
		t.Fatal(err)
	}
	j.AppendChunk(FormatJSON, bytes.Repeat([]byte("y"), 1000))
	j.Close()
	fi, err := os.Stat(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != fi.Size() {
		t.Fatalf("Size() = %d, file is %d", j.Size(), fi.Size())
	}
}

// FuzzReadFile holds replay to its contract on three kinds of input.
//
//   - Arbitrary bytes: ReadFile never panics, and either refuses the
//     file as ErrCorrupt or accounts for every byte — the valid prefix
//     plus Torn is the file's length.
//   - A journal of fuzzed chunk bodies and formats, cut at a fuzzed
//     offset past its meta record: replay yields exactly the chunks
//     whose records end at or before the cut, byte for byte.
//   - That cut journal reopened with OpenAppend and given one more
//     chunk: replay yields the prefix plus the new chunk, with Torn 0.
//
// The journal carries no checksums, so "replay never yields a chunk
// that was not appended" is a property of truncation — a crash cutting
// the file short — and this target claims nothing about journals whose
// bytes were altered in place.
func FuzzReadFile(f *testing.F) {
	dir := f.TempDir()
	j, err := Create(dir, Options{Mode: SyncNone}, testMeta("j1", 1))
	if err != nil {
		f.Fatal(err)
	}
	j.AppendChunk(FormatJSON, []byte(`{"index":0,"type":"ok"}`+"\n"))
	j.AppendChunk(FormatBinary, []byte{0xEB, 1, 2})
	j.Close()
	whole, err := os.ReadFile(j.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole, []byte("a\x00bb\x00"), uint8(2), uint32(0))
	f.Add(whole[:len(whole)-1], []byte("line\n"), uint8(1), uint32(7))
	f.Add(whole[:headerLen], []byte{}, uint8(0), uint32(1))
	f.Add([]byte{}, []byte("\x00\x00\x00"), uint8(5), uint32(1<<20))
	f.Add([]byte("not a journal at all"), []byte("x"), uint8(0), uint32(3))

	f.Fuzz(func(t *testing.T, raw, bodies []byte, formats uint8, cut uint32) {
		dir := t.TempDir()
		path := filepath.Join(dir, "raw.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := ReadFile(path); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadFile error is not ErrCorrupt: %v", err)
			}
		} else if r.valid+r.Torn != int64(len(raw)) {
			t.Fatalf("valid %d + torn %d != file length %d", r.valid, r.Torn, len(raw))
		}

		chunks := bytes.Split(bodies, []byte{0})
		if len(chunks) > 8 {
			chunks = chunks[:8]
		}
		format := func(i int) byte {
			if formats>>i&1 == 1 {
				return FormatBinary
			}
			return FormatJSON
		}
		j, err := Create(dir, Options{Mode: SyncNone}, testMeta("j2", 2))
		if err != nil {
			t.Fatal(err)
		}
		metaEnd := j.Size()
		ends := make([]int64, len(chunks))
		for i, c := range chunks {
			if err := j.AppendChunk(format(i), c); err != nil {
				t.Fatal(err)
			}
			ends[i] = j.Size()
		}
		j.Close()
		whole, err := os.ReadFile(j.Path())
		if err != nil {
			t.Fatal(err)
		}
		at := metaEnd + int64(cut)%(int64(len(whole))-metaEnd+1)
		if err := os.WriteFile(j.Path(), whole[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ReadFile(j.Path())
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", at, len(whole), err)
		}
		kept, lastEnd := 0, metaEnd
		for kept < len(ends) && ends[kept] <= at {
			lastEnd = ends[kept]
			kept++
		}
		if len(r.Chunks) != kept || r.Torn != at-lastEnd {
			t.Fatalf("cut at %d: replayed %d chunks with %d torn, want %d with %d", at, len(r.Chunks), r.Torn, kept, at-lastEnd)
		}
		for i, c := range r.Chunks {
			if c.Format != format(i) || !bytes.Equal(c.Body, chunks[i]) {
				t.Fatalf("cut at %d: chunk %d = %c %q, want %c %q", at, i, c.Format, c.Body, format(i), chunks[i])
			}
		}

		ja, err := r.OpenAppend(Options{Mode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if err := ja.AppendChunk(FormatJSON, []byte("appended after the cut\n")); err != nil {
			t.Fatal(err)
		}
		ja.Close()
		again, err := ReadFile(j.Path())
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Chunks) != kept+1 || again.Torn != 0 ||
			string(again.Chunks[kept].Body) != "appended after the cut\n" {
			t.Fatalf("cut at %d, then append: %d chunks, torn %d", at, len(again.Chunks), again.Torn)
		}
		for i := 0; i < kept; i++ {
			if !bytes.Equal(again.Chunks[i].Body, chunks[i]) {
				t.Fatalf("cut at %d, then append: chunk %d changed", at, i)
			}
		}
	})
}
