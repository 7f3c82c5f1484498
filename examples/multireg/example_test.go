package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// === pageflag ===
	// registered twice: handles 1 and 2
	// after 1st deregister + pressure: only 0/8 pages pinned — the first deregister dropped the lock!
	// after last deregister + pressure: 0/8 pages resident (evictable again: true)
	//
	// === mlock ===
	// registered twice: handles 1 and 2
	// after 1st deregister + pressure: 8/8 pages still pinned — nesting works
	// after last deregister + pressure: 0/8 pages resident (evictable again: true)
	//
	// === kiobuf ===
	// registered twice: handles 1 and 2
	// after 1st deregister + pressure: 8/8 pages still pinned — nesting works
	// after last deregister + pressure: 0/8 pages resident (evictable again: true)
}
