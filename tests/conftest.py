# Keeps the tests directory on sys.path so test modules can import the
# shared helpers (oracles.py, dot_grammar.py, strategies.py) directly.
