from hypothesis import settings

# one deterministic hypothesis profile for the whole session, so that every
# property module sees the same settings whatever the collection order
settings.register_profile("vinetail", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("vinetail")
