package service

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzProtocolDecode throws arbitrary bytes at the wire codec and the
// request dispatcher: ParseRequest must never panic and must agree with
// encoding/json on every input (both reject, or both accept the same
// request), accepted requests must re-encode byte-identically to
// json.Marshal and survive a marshal/re-parse round trip unchanged, and
// HandleEnvelope must return a well-formed envelope for anything the
// codec lets through.
func FuzzProtocolDecode(f *testing.F) {
	for _, line := range requestLines {
		f.Add([]byte(line))
	}
	f.Add([]byte(`{"op":"ping"}`))
	f.Add([]byte(`{"op":"upload","user":3,"peers":[{"peer":1,"rank":1},{"peer":2,"rank":2}]}`))
	f.Add([]byte(`{"op":"cloak","user":0}`))
	f.Add([]byte(`{"op":"freeze"}`))
	f.Add([]byte(`{"op":"stats"}`))
	f.Add([]byte(`{"op":"ping"}{"op":"ping"}`))
	f.Add([]byte(`  {"op":"ping"}  `))
	f.Add([]byte(`{"op":"upload","user":-9,"peers":[{"peer":99,"rank":-1}]}`))
	f.Add([]byte(``))
	f.Add([]byte(`not json at all`))
	f.Add([]byte("{\"op\":\"ping\"}\n"))
	f.Add([]byte(`{"v":1,"op":"ping"}`))
	f.Add([]byte(`{"v":1,"op":"cloak","user":2}`))
	f.Add([]byte(`{"v":1,"op":"epoch"}`))
	f.Add([]byte(`{"v":1,"op":"rotate"}`))
	f.Add([]byte(`{"v":99,"op":"stats"}`))
	f.Add([]byte(`{"v":-1,"op":"stats"}`))

	srv, err := New(WithNumUsers(16), WithK(3))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		checkRequestLine(t, line)
		req, err := ParseRequest(line)
		if err != nil {
			// Rejected input: the error must carry the reason, and the
			// zero Request must not leak partial state.
			if err.Error() == "" {
				t.Fatal("rejection without a reason")
			}
			return
		}

		// Round trip: a request the codec accepts must re-encode to a
		// line the codec accepts, decoding to the identical request.
		encoded, merr := json.Marshal(req)
		if merr != nil {
			t.Fatalf("accepted request does not marshal: %v", merr)
		}
		again, perr := ParseRequest(encoded)
		if perr != nil {
			t.Fatalf("re-encoded request rejected: %v\nline: %s", perr, encoded)
		}
		// Normalize the lossy spots of the encoding: omitempty drops an
		// empty peers or uploads array, so it re-decodes as nil — same
		// request.
		if !reflect.DeepEqual(dropEmptyLists(req), again) {
			t.Fatalf("round trip changed the request:\n  first: %+v\n  again: %+v", req, again)
		}

		// The dispatcher must answer anything the codec accepts without
		// panicking, and its envelope must itself encode.
		env := srv.HandleEnvelope(context.Background(), req)
		if _, merr := json.Marshal(env); merr != nil {
			t.Fatalf("envelope does not marshal: %v", merr)
		}
		if env.V != ProtocolVersion {
			t.Fatalf("envelope version = %d, want %d", env.V, ProtocolVersion)
		}
		if env.OK && env.Error != "" {
			t.Fatalf("envelope both OK and errored: %+v", env)
		}
	})
}

func TestParseRequestStrictness(t *testing.T) {
	tests := []struct {
		name string
		line string
		ok   bool
	}{
		{"simple", `{"op":"ping"}`, true},
		{"surrounding space", "  {\"op\":\"stats\"} \t", true},
		{"upload", `{"op":"upload","user":1,"peers":[{"peer":2,"rank":1}]}`, true},
		{"unknown fields tolerated", `{"op":"ping","future":true}`, true},
		{"empty", ``, false},
		{"whitespace only", " \t ", false},
		{"garbage", `ping please`, false},
		{"truncated", `{"op":"pi`, false},
		{"two values", `{"op":"ping"}{"op":"stats"}`, false},
		{"trailing garbage", `{"op":"ping"} trailing`, false},
		{"wrong type", `{"op":"upload","user":"three"}`, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRequest([]byte(tc.line))
			if tc.ok && err != nil {
				t.Fatalf("ParseRequest(%q) = %v, want ok", tc.line, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("ParseRequest(%q) accepted, want error", tc.line)
			}
		})
	}
}

// FuzzEnvelopeDecode throws arbitrary reply lines at the client's
// envelope decoder: it must agree with json.Unmarshal on every input,
// and every envelope it accepts must re-encode byte-identically to
// json.Marshal.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, line := range envelopeLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkEnvelopeLine(t, line)
	})
}

// dropEmptyLists returns req with every empty peers and uploads list
// set to nil, the way a json.Marshal round trip leaves them.
func dropEmptyLists(req Request) Request {
	if len(req.Peers) == 0 {
		req.Peers = nil
	}
	if len(req.Uploads) == 0 {
		req.Uploads = nil
	}
	entries := append([]UploadEntry(nil), req.Uploads...)
	for i := range entries {
		if len(entries[i].Peers) == 0 {
			entries[i].Peers = nil
		}
	}
	if entries != nil {
		req.Uploads = entries
	}
	return req
}
