"""End-to-end benchmark: paper-reproduction wall time and the TCP serving knee (see README.md)."""
