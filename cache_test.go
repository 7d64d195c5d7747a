package eba_test

import (
	"net/http/httptest"
	"testing"

	eba "repro"
)

// TestOpenResultCache covers the four (directory, server URL) cases the
// CLIs' -cache/-cache-url flags resolve through, and that the returned
// close function closes the local store.
func TestOpenResultCache(t *testing.T) {
	shared, err := eba.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	ts := httptest.NewServer(eba.NewCacheServer(shared))
	defer ts.Close()
	const key = "ab12/run/cd34"

	store, closeStore, err := eba.OpenResultCache("", "")
	if err != nil || store != nil {
		t.Fatalf("neither: store %v, err %v; want nil, nil", store, err)
	}
	if err := closeStore(); err != nil {
		t.Fatalf("neither: close: %v", err)
	}

	store, closeStore, err = eba.OpenResultCache(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.(*eba.Cache); !ok {
		t.Fatalf("dir only: got %T, want *eba.Cache", store)
	}
	if err := store.Put(key, []byte("local")); err != nil {
		t.Fatalf("dir only: put: %v", err)
	}
	if err := closeStore(); err != nil {
		t.Fatalf("dir only: close: %v", err)
	}
	if err := store.Put(key, []byte("again")); err == nil {
		t.Fatal("dir only: put succeeded after close — the local store was not closed")
	}

	store, closeStore, err = eba.OpenResultCache("", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.(*eba.CacheClient); !ok {
		t.Fatalf("url only: got %T, want *eba.CacheClient", store)
	}
	if err := closeStore(); err != nil {
		t.Fatalf("url only: close: %v", err)
	}

	store, closeStore, err = eba.OpenResultCache(t.TempDir(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.(*eba.TieredCache); !ok {
		t.Fatalf("both: got %T, want *eba.TieredCache", store)
	}
	if err := store.Put(key, []byte("tiered")); err != nil {
		t.Fatalf("both: put: %v", err)
	}
	if val, ok := shared.Get(key); !ok || string(val) != "tiered" {
		t.Fatalf("both: the put did not write through to the server (got %q, %v)", val, ok)
	}
	if err := closeStore(); err != nil {
		t.Fatalf("both: close: %v", err)
	}
	if err := store.Put(key, []byte("again")); err == nil {
		t.Fatal("both: put succeeded after close — the local tier was not closed")
	}
}
