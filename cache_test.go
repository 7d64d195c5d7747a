package eba_test

import (
	"testing"

	eba "repro"
)

// TestOpenResultCache covers the two cases the CLIs' -cache flag
// resolves through — no directory, a directory — and that the returned
// close function closes the store.
func TestOpenResultCache(t *testing.T) {
	const key = "ab12/run/cd34"

	store, closeStore, err := eba.OpenResultCache("")
	if err != nil || store != nil {
		t.Fatalf("empty: store %v, err %v; want nil, nil", store, err)
	}
	if err := closeStore(); err != nil {
		t.Fatalf("empty: close: %v", err)
	}

	store, closeStore, err = eba.OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.(*eba.Cache); !ok {
		t.Fatalf("dir: got %T, want *eba.Cache", store)
	}
	if err := store.Put(key, []byte("local")); err != nil {
		t.Fatalf("dir: put: %v", err)
	}
	if err := closeStore(); err != nil {
		t.Fatalf("dir: close: %v", err)
	}
	if err := store.Put(key, []byte("again")); err == nil {
		t.Fatal("dir: put succeeded after close — the store was not closed")
	}
}
