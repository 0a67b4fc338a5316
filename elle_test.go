package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	elle "repro"
)

// These tests exercise the public facade end to end, the way a
// downstream user would: build or generate a history, check it, read the
// verdict, serialize it, and run the baseline.

func TestFacadeHandBuiltHistory(t *testing.T) {
	h := elle.MustHistory([]elle.Op{
		elle.Txn(0, 0, elle.OK, elle.Append("x", 1)),
		elle.Txn(1, 1, elle.OK, elle.Append("x", 2)),
		elle.Txn(2, 2, elle.OK, elle.ReadList("x", []int{1, 2})),
	})
	res := elle.Check(h, elle.OptsFor(elle.ListAppend, elle.Serializable))
	if !res.Valid {
		t.Fatalf("clean history invalid:\n%s", res.Summary())
	}
}

func TestFacadeGenerateAndCheck(t *testing.T) {
	g := elle.NewGen(elle.GenConfig{ActiveKeys: 4, MaxWritesPerKey: 30}, 9)
	h := elle.Run(elle.RunConfig{
		Clients:   8,
		Txns:      500,
		Isolation: elle.EngineSnapshotIsolation,
		Faults:    elle.Faults{RetryStompProb: 0.5, RetryRebaseProb: 1},
		Source:    g,
		Seed:      9,
	})
	opts := elle.OptsFor(elle.ListAppend, elle.SnapshotIsolation)
	opts.KeyConsistency = elle.LinearizableKeys
	res := elle.Check(h, opts)
	if res.Valid {
		t.Fatal("retry-faulted SI engine passed its SI claim")
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("no anomalies reported")
	}
	if len(res.Violated) == 0 || len(res.Strongest) == 0 {
		t.Error("model report empty")
	}
	// Every anomaly carries an explanation.
	for _, a := range res.Anomalies {
		if a.Explanation == "" {
			t.Errorf("anomaly %s has no explanation", a.Type)
		}
	}
}

func TestFacadeSerializationRoundTrip(t *testing.T) {
	g := elle.NewGen(elle.GenConfig{}, 2)
	h := elle.Run(elle.RunConfig{
		Clients: 4, Txns: 100, Isolation: elle.EngineSerializable,
		Source: g, Seed: 2,
	})
	var buf bytes.Buffer
	if err := elle.EncodeHistory(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"invoke"`) {
		t.Error("encoded history missing invokes")
	}
	back, err := elle.DecodeHistory(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("round trip %d != %d ops", back.Len(), h.Len())
	}
	res := elle.Check(back, elle.OptsFor(elle.ListAppend, elle.StrictSerializable))
	if !res.Valid {
		t.Fatalf("round-tripped clean history invalid: %v", res.AnomalyTypes())
	}
}

func TestFacadeBaseline(t *testing.T) {
	h := elle.MustHistory([]elle.Op{
		elle.Txn(0, 0, elle.OK, elle.Append("x", 1)),
		elle.Txn(1, 1, elle.OK, elle.ReadList("x", []int{1})),
	})
	r := elle.CheckSerializable(h, 5*time.Second)
	if r.Outcome.String() != "serializable" {
		t.Fatalf("baseline outcome = %v", r.Outcome)
	}
}

// ExampleCheck builds the classic write-skew history by hand — two
// transactions that each read the version the other overwrites — and
// checks it against serializability.
func ExampleCheck() {
	h := elle.MustHistory([]elle.Op{
		elle.Txn(0, 0, elle.OK, elle.Append("x", 1), elle.Append("y", 1)),
		elle.Txn(1, 1, elle.OK, elle.ReadList("x", []int{1}), elle.Append("y", 2)),
		elle.Txn(2, 2, elle.OK, elle.ReadList("y", []int{1}), elle.Append("x", 2)),
		elle.Txn(3, 3, elle.OK, elle.ReadList("x", []int{1, 2}), elle.ReadList("y", []int{1, 2})),
	})
	res := elle.Check(h, elle.OptsFor(elle.ListAppend, elle.Serializable))
	fmt.Print(res.Summary())
	// Output:
	// INVALID under serializable
	//   4 ops, 4 nodes, 6 edges, 1 cyclic components
	//   anomalies: G2-item×1
	//   may satisfy: strong-session-snapshot-isolation
}

// ExampleCheckStream checks a history incrementally, the way `elle
// -follow` tails a live run: each Feed ingests a chunk and surfaces the
// anomalies it makes provable, and Finish returns the same report a
// batch Check of the whole history would. Here the first chunk carries
// an aborted append; the moment the second chunk reads it, the G1a is
// provable and appears in that feed's Delta.
func ExampleCheckStream() {
	st := elle.CheckStream(elle.OptsFor(elle.ListAppend, elle.Serializable))
	d, _ := st.Feed([]elle.Op{
		elle.Txn(0, 0, elle.Fail, elle.Append("x", 1)),
	})
	fmt.Println("after chunk 1:", len(d.Anomalies), "anomalies")
	d, _ = st.Feed([]elle.Op{
		elle.Txn(1, 1, elle.OK, elle.ReadList("x", []int{1})),
	})
	fmt.Println("after chunk 2:", len(d.Anomalies), "anomalies —", d.Anomalies[0].Type)
	res, _ := st.Finish()
	fmt.Print(res.Summary())
	// Output:
	// after chunk 1: 0 anomalies
	// after chunk 2: 1 anomalies — G1a
	// INVALID under serializable
	//   2 ops, 1 nodes, 0 edges, 0 cyclic components
	//   anomalies: G1a×1
	//   may satisfy: read-uncommitted
}

// ExampleNewService drives the checker's HTTP service in-process — the
// same session machinery as CheckStream, reached over the wire the way
// cmd/elled serves it: create a job, feed the history in chunks, fetch
// the final report.
func ExampleNewService() {
	svc, err := elle.NewService(elle.ServiceConfig{})
	if err != nil {
		panic(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	post := func(path, body string) string {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal([]byte(post("/v1/jobs", `{"model":"serializable","parallelism":1}`)), &job)

	post("/v1/jobs/"+job.ID+"/chunks",
		`{"index":0,"type":"fail","process":0,"value":[["append","x",1]]}`+"\n")
	post("/v1/jobs/"+job.ID+"/chunks",
		`{"index":1,"type":"ok","process":1,"value":[["r","x",[1]]]}`+"\n")

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/report")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	rep, _ := io.ReadAll(resp.Body)
	// The verdict summary — the report's anomaly sections follow it,
	// byte-identical to a batch elle.Check over the same chunks.
	fmt.Print(strings.SplitN(string(rep), "\n--- ", 2)[0])
	// Output:
	// INVALID under serializable
	//   2 ops, 1 nodes, 0 edges, 0 cyclic components
	//   anomalies: G1a×1
	//   may satisfy: read-uncommitted
}

// ExampleWorkloads lists the registered workload analyzers: the live
// set Check accepts, derived from the internal registry.
func ExampleWorkloads() {
	for _, w := range elle.Workloads() {
		fmt.Println(w)
	}
	// Output:
	// bank
	// counter
	// katomic
	// list-append
	// rw-register
	// set-add
}

// ExampleCheck_bank checks a hand-built bank history: the opening
// deposit publishes the account set and invariant total, a transfer
// moves 10, and a torn read-all observes money missing.
func ExampleCheck_bank() {
	h := elle.MustHistory([]elle.Op{
		elle.Txn(0, 0, elle.OK, elle.Write("a", 100), elle.Write("b", 100)),
		elle.Txn(1, 1, elle.OK,
			elle.ReadReg("a", 100), elle.ReadReg("b", 100),
			elle.Write("a", 90), elle.Write("b", 110)),
		elle.Txn(2, 2, elle.OK, elle.ReadReg("a", 90), elle.ReadReg("b", 100)),
	})
	res := elle.Check(h, elle.OptsFor(elle.Bank, elle.SnapshotIsolation))
	for _, a := range res.Anomalies {
		fmt.Println(a.Type)
	}
	// Output:
	// total-mismatch
	// G-single
}

// ExampleRun generates a history against the in-memory engine — a seeded,
// fully reproducible multi-client simulation — and checks it.
func ExampleRun() {
	g := elle.NewGen(elle.GenConfig{ActiveKeys: 3, MaxWritesPerKey: 20}, 1)
	h := elle.Run(elle.RunConfig{
		Clients:   4,
		Txns:      50,
		Isolation: elle.EngineSerializable,
		Source:    g,
		Seed:      1,
	})
	res := elle.Check(h, elle.OptsFor(elle.ListAppend, elle.Serializable))
	fmt.Printf("%d ops, valid: %v\n", h.Len(), res.Valid)
	// Output:
	// 100 ops, valid: true
}

// ExampleDecodeHistory reads a Jepsen-style JSON-lines observation and
// checks it, the way `cmd/elle` does for files.
func ExampleDecodeHistory() {
	const lines = `
{"index":0,"type":"invoke","process":0,"value":[["append",0,1],["r",0,null]]}
{"index":1,"type":"ok","process":0,"value":[["append",0,1],["r",0,[1]]]}
{"index":2,"type":"invoke","process":1,"value":[["r",0,null]]}
{"index":3,"type":"ok","process":1,"value":[["r",0,[1]]]}
`
	h, err := elle.DecodeHistory(strings.NewReader(lines), false)
	if err != nil {
		panic(err)
	}
	res := elle.Check(h, elle.OptsFor(elle.ListAppend, elle.StrictSerializable))
	fmt.Print(res.Summary())
	// Output:
	// OK: no anomalies rule out strict-serializable
	//   2 ops, 2 nodes, 1 edges, 0 cyclic components
}

func TestFacadeDirectEngineUse(t *testing.T) {
	db := elle.NewDB(elle.EngineSerializable, elle.Faults{}, 1)
	tx := db.Begin()
	tx.Append("k", 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if got := tx2.ReadList("k"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("read = %v", got)
	}
}
