package dpss

import (
	"net"
	"testing"
	"time"
)

// TestLegacyReadOpsRejected: the retired read ops (lock-step 10, compressed
// 12, hello 14, single-block pipelined 15) are unknown message types to a
// live block server. Each gets a msgError reply, and the connection stays
// usable for the next request.
func TestLegacyReadOpsRejected(t *testing.T) {
	srv := NewBlockServer(WithDisks(2))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck

	e := &encoder{}
	e.u32(1).str("legacy").u64(0)
	for _, op := range []byte{10, 12, 14, 15} {
		if err := writeFrame(conn, op, e.buf); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		respType, resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("op %d: reading reply: %v", op, err)
		}
		if respType != msgError {
			t.Fatalf("op %d: reply type %d (%q), want msgError", op, respType, resp)
		}
	}

	w := &encoder{}
	w.str("legacy").u64(0).bytes([]byte("block zero"))
	if err := writeFrame(conn, msgWriteBlock, w.buf); err != nil {
		t.Fatal(err)
	}
	if respType, resp, err := readFrame(conn); err != nil || respType != msgOK {
		t.Fatalf("write after the rejected ops: type %d (%q), err %v; want msgOK", respType, resp, err)
	}
	if got, err := srv.diskFor(0).ReadBlock("legacy", 0); err != nil || string(got) != "block zero" {
		t.Fatalf("stored block = %q, %v", got, err)
	}
	if st := srv.Stats(); st.Errors != 4 {
		t.Fatalf("server counted %d errors, want 4", st.Errors)
	}
}

// TestDropDatasetExactName is the regression test for prefix-matched
// eviction: dropping dataset "a" must leave the blocks of "a/b" and "a/b/c"
// alone, on one disk and across a block server's disks.
func TestDropDatasetExactName(t *testing.T) {
	names := []string{"a", "a/b", "a/b/c"}

	d := NewDisk()
	for _, name := range names {
		d.WriteBlock(name, 0, []byte(name))
		d.WriteBlock(name, 1, []byte(name))
	}
	for i, name := range names {
		if dropped := d.DropDataset(name); dropped != 2 {
			t.Fatalf("disk: DropDataset(%q) = %d, want 2", name, dropped)
		}
		for _, rest := range names[i+1:] {
			if !d.HasBlock(rest, 0) || !d.HasBlock(rest, 1) {
				t.Fatalf("disk: DropDataset(%q) evicted blocks of %q", name, rest)
			}
		}
	}

	srv := NewBlockServer(WithDisks(2))
	for _, name := range names {
		for b := int64(0); b < 4; b++ {
			srv.diskFor(b).WriteBlock(name, b, []byte(name))
		}
	}
	for i, name := range names {
		if dropped := srv.DropDataset(name); dropped != 4 {
			t.Fatalf("server: DropDataset(%q) = %d, want 4", name, dropped)
		}
		if want := 4 * (len(names) - i - 1); srv.Stats().BlocksStored != want {
			t.Fatalf("server: %d blocks left after DropDataset(%q), want %d", srv.Stats().BlocksStored, name, want)
		}
	}
}
