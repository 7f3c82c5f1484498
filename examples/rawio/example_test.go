package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// raw round trip: 16 pages, 0 corrupted — kiobuf path, no bounce buffers
	// device: 2 requests, 128 sectors written, 128 read
	//
	// pageflag deregistration during kernel I/O: 1 PG_locked clobber(s) detected
	// (the kiobuf mechanism never touches the flag — see examples/multireg)
}
