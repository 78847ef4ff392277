package store

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	s := New()
	s.Put("b", "k", []byte("hello"))
	got, err := s.Get("b", "k")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("b", "missing"); err == nil {
		t.Error("missing key should error")
	}
	if _, err := s.Get("nobucket", "k"); err == nil {
		t.Error("missing bucket should error")
	}
}

func TestCreateBucket(t *testing.T) {
	s := New()
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b"); err == nil {
		t.Error("duplicate bucket should error")
	}
}

func TestDelete(t *testing.T) {
	s := New()
	s.Put("b", "k", []byte("x"))
	s.Delete("b", "k")
	if _, err := s.Get("b", "k"); err == nil {
		t.Error("deleted key should be gone")
	}
	s.Delete("b", "never-existed") // no panic
	s.Delete("nobucket", "k")
}

func TestSize(t *testing.T) {
	s := New()
	s.Put("b", "k", make([]byte, 123))
	n, err := s.Size("b", "k")
	if err != nil || n != 123 {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func TestListAndTableParts(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		s.Put("tpch", PartitionKey("customer", i), []byte{byte(i)})
	}
	s.Put("tpch", "customer_index/part0000.csv", []byte("idx"))
	s.Put("tpch", "orders/part0000.csv", []byte("o"))
	parts := s.TableParts("tpch", "customer")
	if len(parts) != 3 {
		t.Fatalf("parts = %v", parts)
	}
	for i, p := range parts {
		if p != fmt.Sprintf("customer/part%04d.csv", i) {
			t.Errorf("part[%d] = %q", i, p)
		}
	}
	if n := s.TableSize("tpch", "customer"); n != 3 {
		t.Errorf("TableSize = %d", n)
	}
	if got := s.List("tpch", ""); len(got) != 5 {
		t.Errorf("List all = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			s.Put("b", key, []byte{byte(i)})
			if _, err := s.Get("b", key); err != nil {
				t.Errorf("get %s: %v", key, err)
			}
			s.List("b", "")
		}(i)
	}
	wg.Wait()
	if got := len(s.List("b", "")); got != 16 {
		t.Errorf("keys = %d, want 16", got)
	}
}
