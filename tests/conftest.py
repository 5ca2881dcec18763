from hypothesis import settings

# the same examples on every run, and no per-example deadline, so property
# tests neither flake nor time out on a slow or busy machine
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
