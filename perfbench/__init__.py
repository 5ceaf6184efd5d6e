"""The repository's contract benchmark (see ``perfbench/README.md``)."""
