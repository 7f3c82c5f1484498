package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// sending 8 rounds of 512 KiB, zero-copy rendezvous
	//
	// round 0:  6.475ms    81.0 MB/s  payload ok
	// round 1:  6.419ms    81.7 MB/s  payload ok
	// round 2:  6.419ms    81.7 MB/s  payload ok
	// round 3:  6.419ms    81.7 MB/s  payload ok
	// round 4:  6.419ms    81.7 MB/s  payload ok
	// round 5:  6.419ms    81.7 MB/s  payload ok
	// round 6:  6.419ms    81.7 MB/s  payload ok
	// round 7:  6.419ms    81.7 MB/s  payload ok
	//
	// sender registration cache: 8 misses, 56 hits
	// round 0 pays the registration (cache miss); later rounds ride the cache
}
