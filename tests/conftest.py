from hypothesis import settings

# the same examples on every machine, and no per-example wall-clock limit
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
