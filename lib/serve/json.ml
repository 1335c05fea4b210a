include Cdse_util.Json
