"""The cas-simple-v1 policy language and its evaluation engine."""
