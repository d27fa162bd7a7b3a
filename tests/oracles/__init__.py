"""Independent reference implementations the test-suite checks the library against."""
