package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// === locking strategy: refcount ===
	// registered 32 pages; first page in frame 0
	// allocator touched 6144 pages, kernel swapped out 2112
	// TPT consistency after pressure: 0/32 pages
	// process reads garbage — the DMA write landed in an orphaned frame
	// (32 frames are now orphaned: allocated, mapped by nobody)
	//
	// === locking strategy: kiobuf ===
	// registered 32 pages; first page in frame 0
	// allocator touched 6144 pages, kernel swapped out 2080
	// TPT consistency after pressure: 32/32 pages
	// process reads "payload delivered by DMA" — DMA visible, locking held
}
