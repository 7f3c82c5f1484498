package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// received 31 bytes: "hello from the VIA/kiobuf stack"
	// virtual time elapsed: 28.312µs
	// registrations released cleanly
}
