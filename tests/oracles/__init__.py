"""Reference implementations the tests compare the library against."""
